//! Incrementally maintained grammar-side digram occurrence index.
//!
//! [`crate::occurrences::retrieve_occs`] recomputes the full occurrence table
//! — every chain walk, every overlap check, every usage weight — from scratch.
//! [`OccIndex`] keeps the same information *persistent across rounds* of a
//! `GrammarRePair` run, the way `treerepair::OccTable` does on trees: it is
//! built once at the start of the run and then [`OccIndex::refresh`]ed after
//! each round, at a cost proportional to the nodes the round spliced.
//!
//! The index caches, per rule, one slot per node reachable from the root,
//! indexed by [`NodeId`]: the rule the node references, if any, and, for a
//! generator, its chain-resolved digram candidate together with the rules
//! its chain walks entered. The inverted map `dependents[c]` lists the
//! generators whose walks entered rule `c`.
//!
//! # Refresh contract
//!
//! While the index is live it holds the splice journal of every rule
//! ([`sltgrammar::RhsTree::take_journal`]); [`OccIndex::release`] drops them.
//! A refresh:
//!
//! 1. finds the rules whose [`sltgrammar::RhsTree::version`] moved and drains
//!    their journals. Fresh rules, rules whose frozen status changed, and
//!    rules whose journal was lost to compaction are scanned from scratch;
//! 2. retracts the slots of every node cut off from the root: a node becomes
//!    unreachable only when the root of its subtree is detached or replaced,
//!    and that root is journaled and floating, so its arena subtree is
//!    exactly the garbage. Splices therefore must only target nodes
//!    reachable from the root (every mutation `GrammarRePair` makes does);
//! 3. rescans the journaled nodes, their children (a node's candidate reads
//!    its parent's label), and the generators in `dependents[c]` of every
//!    rule `c` that changed or vanished. A rescan that reproduces the cached
//!    slot changes nothing downstream;
//! 4. recomputes rule order and usage from the cached call graph in dense
//!    `NtId`-indexed tables and propagates `count × Δusage` weight deltas;
//! 5. replays equal-label digrams in canonical order — rules in
//!    anti-straight-line order, candidates in preorder within a rule — from
//!    cached per-rule lists; a rule's lists are re-sorted by one preorder
//!    walk only when its equal-label candidates changed (greedy overlap
//!    resolution is order-sensitive, so deltas alone cannot reproduce the
//!    oracle);
//! 6. forwards every weight change to the embedded
//!    [`FrequencyBucketQueue`].
//!
//! The result is bit-for-bit the table [`crate::occurrences::retrieve_occs`]
//! would build on the current grammar — same weights (saturating semantics
//! included), same generator rule sets, same selection under the queue's
//! deterministic tie-breaking. The differential test below checks this after
//! random rounds and splices; `tests/recompress_incremental.rs` and the
//! selector-equivalence suite assert byte-identical output grammars against
//! the per-round rebuild oracle.

use std::num::NonZeroU32;

use sltgrammar::{FxHashMap, FxHashSet, Grammar, NodeId, NodeKind, NtId};
use treerepair::{Digram, FrequencyBucketQueue};

use crate::occurrences::{
    is_transparent_nt, overlaps, resolved_kind, tree_child_traced, tree_parent_traced, FrozenSet,
    GrammarNode,
};

/// Dense id of a digram the index has seen (see `OccIndex::ids`).
type DigramId = u32;

/// The chain-resolved occurrence candidate of one generator node (the
/// pre-overlap view of a generator). The resolved ends of a replayed
/// candidate live in `RuleCache::ends`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    digram: DigramId,
    /// Whether the equal-label replay considers this candidate: its digram
    /// has equal labels and the generator node is not a transparent
    /// nonterminal reference (whose tree child is the root of another rule).
    replayed: bool,
}

/// One node reachable from a rule's root, as the index last saw it: the
/// rule it references, if it is a nonterminal (the call graph), and its
/// candidate — none for the root, parameters, nodes of frozen rules and
/// nodes whose chain walk resolves nothing. Packed into two `u32`s, since
/// the table holds one per arena node of every rule, garbage included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    /// `NtId::index() + 1` of the callee.
    callee: Option<NonZeroU32>,
    /// `2 × digram + replayed + 2` of the candidate, `1` for none.
    cand: NonZeroU32,
}

impl Slot {
    fn new(callee: Option<NtId>, cand: Option<Candidate>) -> Slot {
        let code = cand.map_or(1, |c| 2 * c.digram + u32::from(c.replayed) + 2);
        Slot {
            callee: callee.and_then(|nt| NonZeroU32::new(nt.0 + 1)),
            cand: NonZeroU32::new(code).expect("candidate codes start at 1"),
        }
    }

    fn callee(self) -> Option<NtId> {
        self.callee.map(|c| NtId(c.get() - 1))
    }

    fn cand(self) -> Option<Candidate> {
        let code = self.cand.get().checked_sub(2)?;
        Some(Candidate {
            digram: code / 2,
            replayed: code % 2 == 1,
        })
    }
}

/// The resolved tree parent and tree child of a candidate.
type Ends = (GrammarNode, GrammarNode);

/// Everything the index knows about one rule, valid for one
/// [`sltgrammar::RhsTree::version`].
#[derive(Debug, Clone, Default)]
struct RuleCache {
    /// Rhs version this cache was synchronized with.
    version: u64,
    /// Frozen rules contribute call-graph edges and size but no candidates.
    frozen: bool,
    /// Every node reachable from the root (the root included), indexed by
    /// [`NodeId::index`]; `None` for garbage and unseen arena nodes.
    slots: Vec<Option<Slot>>,
    /// Rules the chain walks of a generator entered, sorted and distinct, for
    /// the generators that entered any: if one of them changes, the
    /// candidate is stale.
    deps: FxHashMap<NodeId, Box<[NtId]>>,
    /// Resolved tree parent and tree child of each replayed candidate.
    ends: FxHashMap<NodeId, Ends>,
    /// Distinct callees with reference multiplicities (the call graph).
    callees: FxHashMap<NtId, u64>,
    /// Candidate count per digram: the usage-delta unit.
    counts: FxHashMap<DigramId, u64>,
    /// Ends of the replayed equal-label candidates per digram, in preorder.
    equal: FxHashMap<DigramId, Vec<Ends>>,
    /// Equal-label digrams whose `equal` list must be rebuilt.
    equal_stale: FxHashSet<DigramId>,
}

impl RuleCache {
    fn slot(&self, node: NodeId) -> Option<&Slot> {
        self.slots.get(node.index()).and_then(Option::as_ref)
    }

    fn deps(&self, node: NodeId) -> &[NtId] {
        self.deps.get(&node).map_or(&[], |d| d)
    }
}

/// A node's fresh scan: its slot, the rules its chain walks entered, and
/// the resolved ends if the candidate is replayed.
struct Scan {
    slot: Slot,
    deps: Vec<NtId>,
    ends: Option<Ends>,
}

/// Per-digram aggregate state.
#[derive(Debug, Clone)]
struct Entry {
    /// Equal-label digrams are maintained by replay, not by deltas.
    equal: bool,
    /// Exact usage-weighted occurrence count. `i128` so that delta
    /// application never wraps; clamped to `u64` at the queue boundary, which
    /// reproduces the oracle's saturating additions (a sum of non-negative
    /// saturating adds equals `min(Σ, u64::MAX)`).
    weight: i128,
    /// Candidate counts per contributing rule (pre-overlap).
    cand_rules: FxHashMap<NtId, u64>,
    /// Rules with at least one *accepted* occurrence after equal-label
    /// replay; equals the candidate rules for non-equal digrams.
    accepted_rules: FxHashSet<NtId>,
    /// Weight currently registered in the queue.
    queued: u64,
}

impl Entry {
    fn new(equal: bool) -> Self {
        Entry {
            equal,
            weight: 0,
            cand_rules: FxHashMap::default(),
            accepted_rules: FxHashSet::default(),
            queued: 0,
        }
    }
}

/// The persistent grammar-side occurrence table with its embedded selection
/// queue. See the module docs for the refresh contract.
#[derive(Debug, Clone, Default)]
pub struct OccIndex {
    /// Rule caches, indexed by [`NtId::index`].
    rules: Vec<Option<RuleCache>>,
    /// `dependents[c]`: the generators whose chain walks entered rule `c`.
    dependents: Vec<FxHashSet<GrammarNode>>,
    /// Ids of every digram seen; ids are never reused.
    ids: FxHashMap<Digram, DigramId>,
    /// The digram of each id.
    digrams: Vec<Digram>,
    /// Aggregates of the digrams with candidates, indexed by id (boxed: the
    /// ids of vanished digrams stay allocated).
    entries: Vec<Option<Box<Entry>>>,
    queue: FrequencyBucketQueue,
    /// Usage per rule the cached weights are valued at, indexed by
    /// [`NtId::index`].
    usage: Vec<u64>,
    /// Current anti-straight-line rule order (callees first), mirrored from
    /// the cached call graph so no per-round body walk is needed.
    order: Vec<NtId>,
    /// Digrams whose aggregates changed during the current refresh.
    touched: FxHashSet<DigramId>,
    /// Cached slots over all rules.
    total_nodes: usize,
    /// Cached rules.
    cached_rules: usize,
    /// Generator nodes whose candidate was computed, over the index's life.
    rescanned: usize,
}

impl OccIndex {
    /// Builds the index for the current grammar (a refresh from an empty
    /// state) and starts the splice journals of every rule.
    pub fn build(g: &mut Grammar, frozen: &FrozenSet) -> Self {
        let mut index = OccIndex::default();
        index.refresh(g, frozen);
        index
    }

    /// Drops the splice journals the index holds: rule bodies stop recording
    /// their splices.
    pub fn release(self, g: &mut Grammar) {
        for nt in g.nonterminals() {
            g.rule_mut(nt).rhs.end_journal();
        }
    }

    /// Re-synchronizes the index with the grammar after a replacement round
    /// (or any sequence of splices on reachable nodes). Cost is proportional
    /// to the journaled nodes, the dependents of changed rules, fresh rules,
    /// usage shifts, the equal-label candidate lists and one pass over the
    /// rule table — not to the rule bodies.
    pub fn refresh(&mut self, g: &mut Grammar, frozen: &FrozenSet) {
        let live = g.nonterminals();
        let width = live.last().map_or(0, |nt| nt.index() + 1);
        if self.rules.len() < width {
            self.rules.resize_with(width, || None);
            self.dependents.resize_with(width, FxHashSet::default);
            self.usage.resize(width, 0);
        }

        // 1. Classify rules by what they can say about their changes. A rule
        // that changed (or vanished) stales its dependents.
        let mut is_live = vec![false; self.rules.len()];
        let mut full: Vec<NtId> = Vec::new();
        let mut spliced: Vec<(NtId, Vec<NodeId>)> = Vec::new();
        let mut moved: Vec<NtId> = Vec::new();
        for &nt in &live {
            is_live[nt.index()] = true;
            let is_frozen = frozen.contains(&nt);
            let rhs = &mut g.rule_mut(nt).rhs;
            match &self.rules[nt.index()] {
                None => {
                    rhs.begin_journal();
                    full.push(nt);
                }
                Some(c) if c.frozen == is_frozen && c.version == rhs.version() => {}
                Some(c) => match rhs.take_journal().filter(|_| c.frozen == is_frozen) {
                    Some(journal) => {
                        moved.push(nt);
                        spliced.push((nt, journal));
                    }
                    None => {
                        rhs.begin_journal();
                        moved.push(nt);
                        full.push(nt);
                    }
                },
            }
        }
        let removed: Vec<NtId> = (0..self.rules.len())
            .filter(|&i| self.rules[i].is_some() && !is_live[i])
            .map(|i| NtId(i as u32))
            .collect();
        moved.extend_from_slice(&removed);

        // 2. The generators staled through changed callees, captured before
        // any retraction edits the dependency map.
        let mut stale: FxHashMap<NtId, Vec<NodeId>> = FxHashMap::default();
        for &callee in &moved {
            for &(rule, node) in &self.dependents[callee.index()] {
                if is_live[rule.index()] {
                    stale.entry(rule).or_default().push(node);
                }
            }
        }

        // 3. Vanished rules retract everything; full rules start over.
        for &nt in removed.iter().chain(full.iter()) {
            self.drop_rule(nt);
        }
        for &nt in &full {
            self.scan_rule(g, nt, frozen);
            stale.remove(&nt);
        }

        // 4. Spliced rules: retract the garbage, rescan the journaled nodes,
        // their children and the staled generators.
        for (nt, journal) in spliced {
            let rhs = &g.rule(nt).rhs;
            let root = rhs.root();
            let mut gone: FxHashSet<NodeId> = FxHashSet::default();
            let mut walk: Vec<NodeId> = Vec::new();
            for &j in &journal {
                if j != root && rhs.parent(j).is_none() {
                    walk.push(j);
                    while let Some(x) = walk.pop() {
                        if gone.insert(x) {
                            self.remove_slot(nt, x);
                            walk.extend_from_slice(rhs.children(x));
                        }
                    }
                }
            }
            let mut affected: Vec<NodeId> = stale.remove(&nt).unwrap_or_default();
            for &j in &journal {
                if !gone.contains(&j) {
                    affected.push(j);
                    affected.extend_from_slice(rhs.children(j));
                }
            }
            self.rescan_nodes(g, nt, affected, &gone, frozen);
            self.cache_mut(nt).version = g.rule(nt).rhs.version();
        }
        // Unspliced rules: only generators staled through their callees.
        for (nt, nodes) in stale {
            self.rescan_nodes(g, nt, nodes, &FxHashSet::default(), frozen);
        }

        // 5. Order and usage from the cached call graph; usage deltas: every
        // non-equal weight factors through usage(rule), so a usage shift is a
        // `count × Δ` adjustment per (rule, digram) pair.
        self.order = compute_order(&live, &self.rules);
        let new_usage = compute_usage(g.start(), &self.order, &self.rules);
        for &nt in &live {
            let (u_new, u_old) = (new_usage[nt.index()], self.usage[nt.index()]);
            if u_new == u_old {
                continue;
            }
            let cache = self.rules[nt.index()]
                .as_ref()
                .expect("live rule is cached");
            for (&id, &count) in &cache.counts {
                if let Some(entry) = self.entries[id as usize].as_mut() {
                    if !entry.equal {
                        entry.weight += count as i128 * (u_new as i128 - u_old as i128);
                        self.touched.insert(id);
                    }
                }
            }
        }
        self.usage = new_usage;

        // 6. Equal-label digrams: re-sort the lists that changed, then replay
        // the canonical scan order of every equal-label digram (the order
        // itself can shift as rules are added).
        for &nt in &live {
            self.reorder_equal(g, nt);
        }
        let mut order_pos = vec![0usize; self.rules.len()];
        for (i, &nt) in self.order.iter().enumerate() {
            order_pos[nt.index()] = i;
        }
        for id in 0..self.entries.len() {
            if !self.entries[id].as_ref().is_some_and(|e| e.equal) {
                continue;
            }
            let (weight, accepted) = self.replay_equal(id as DigramId, &order_pos);
            let entry = self.entries[id].as_mut().expect("entry exists");
            entry.weight = weight;
            entry.accepted_rules = accepted;
            self.touched.insert(id as DigramId);
        }

        // 7. Forward net weight changes to the queue; drop empty entries.
        for id in self.touched.drain() {
            let slot = &mut self.entries[id as usize];
            let Some(entry) = slot.as_mut() else {
                continue;
            };
            let digram = &self.digrams[id as usize];
            if entry.cand_rules.is_empty() {
                self.queue.update(digram, entry.queued, 0);
                *slot = None;
                continue;
            }
            let new_queued = clamp_weight(entry.weight);
            if new_queued != entry.queued {
                self.queue.update(digram, entry.queued, new_queued);
                entry.queued = new_queued;
            }
        }
    }

    fn cache_mut(&mut self, nt: NtId) -> &mut RuleCache {
        self.rules[nt.index()].as_mut().expect("rule is cached")
    }

    /// Scans a fresh (or reset) rule from scratch: one slot per reachable
    /// node.
    fn scan_rule(&mut self, g: &Grammar, nt: NtId, frozen: &FrozenSet) {
        let rhs = &g.rule(nt).rhs;
        self.rules[nt.index()] = Some(RuleCache {
            version: rhs.version(),
            frozen: frozen.contains(&nt),
            slots: Vec::with_capacity(rhs.arena_len()),
            ..RuleCache::default()
        });
        self.cached_rules += 1;
        for node in rhs.preorder() {
            let scan = self.scan_node(g, nt, node, frozen);
            self.insert_slot(nt, node, scan);
        }
    }

    /// Rescans the given (reachable, not `gone`) nodes of a cached rule.
    fn rescan_nodes(
        &mut self,
        g: &Grammar,
        nt: NtId,
        mut nodes: Vec<NodeId>,
        gone: &FxHashSet<NodeId>,
        frozen: &FrozenSet,
    ) {
        nodes.sort_unstable();
        nodes.dedup();
        for node in nodes {
            if gone.contains(&node) {
                continue;
            }
            let scan = self.scan_node(g, nt, node, frozen);
            let cache = self.cache_mut(nt);
            if cache.slot(node) == Some(&scan.slot)
                && cache.deps(node) == scan.deps
                && cache.ends.get(&node) == scan.ends.as_ref()
            {
                continue;
            }
            self.remove_slot(nt, node);
            self.insert_slot(nt, node, scan);
        }
    }

    /// Scans one reachable node: its callee and, for a generator of a
    /// non-frozen rule, its chain-resolved candidate. Mirrors the per-node
    /// step of [`crate::occurrences::retrieve_occs`] exactly.
    fn scan_node(&mut self, g: &Grammar, rule: NtId, node: NodeId, frozen: &FrozenSet) -> Scan {
        let rhs = &g.rule(rule).rhs;
        let kind = rhs.kind(node);
        let mut scan = Scan {
            slot: Slot::new(kind.as_nt(), None),
            deps: Vec::new(),
            ends: None,
        };
        if node == rhs.root() || kind.is_param() || frozen.contains(&rule) {
            return scan;
        }
        self.rescanned += 1;
        let deps = &mut scan.deps;
        let Some((tp, index)) = tree_parent_traced(g, rule, node, frozen, &mut |c| deps.push(c))
        else {
            return scan;
        };
        let tc = tree_child_traced(g, rule, node, frozen, &mut |c| deps.push(c));
        deps.sort_unstable();
        deps.dedup();
        let digram = Digram {
            parent: resolved_kind(g, tp),
            child_index: index,
            child: resolved_kind(g, tc),
        };
        let id = *self.ids.entry(digram).or_insert_with(|| {
            self.digrams.push(digram);
            self.entries.push(None);
            self.digrams.len() as DigramId - 1
        });
        let replayed = digram.equal_labels() && !is_transparent_nt(kind, frozen);
        scan.slot = Slot::new(
            kind.as_nt(),
            Some(Candidate {
                digram: id,
                replayed,
            }),
        );
        if replayed {
            scan.ends = Some((tp, tc));
        }
        scan
    }

    /// Registers a slot: call-graph edge, size, and the candidate's count,
    /// non-equal weight (valued at the rule's registered usage) and
    /// dependency edges.
    fn insert_slot(&mut self, nt: NtId, node: NodeId, scan: Scan) {
        let Scan { slot, deps, ends } = scan;
        let cache = self.rules[nt.index()].as_mut().expect("rule is cached");
        if let Some(callee) = slot.callee() {
            *cache.callees.entry(callee).or_insert(0) += 1;
        }
        if let Some(cand) = slot.cand() {
            let id = cand.digram;
            *cache.counts.entry(id).or_insert(0) += 1;
            if cand.replayed {
                cache.equal_stale.insert(id);
            }
            let equal = self.digrams[id as usize].equal_labels();
            let entry =
                self.entries[id as usize].get_or_insert_with(|| Box::new(Entry::new(equal)));
            *entry.cand_rules.entry(nt).or_insert(0) += 1;
            if !entry.equal {
                entry.weight += self.usage[nt.index()] as i128;
            }
            self.touched.insert(id);
        }
        if let Some(ends) = ends {
            cache.ends.insert(node, ends);
        }
        if !deps.is_empty() {
            for dep in &deps {
                self.dependents[dep.index()].insert((nt, node));
            }
            cache.deps.insert(node, deps.into_boxed_slice());
        }
        let len = cache.slots.len();
        if len <= node.index() {
            // Grow by a quarter rather than doubling: the table follows the
            // rule's arena, which keeps growing by small steps through a run.
            cache
                .slots
                .reserve_exact((node.index() + 1 - len).max(len / 4).max(16));
            cache.slots.resize_with(node.index() + 1, || None);
        }
        let previous = cache.slots[node.index()].replace(slot);
        debug_assert!(previous.is_none(), "slot inserted twice");
        self.total_nodes += 1;
    }

    /// Retracts a node's slot, if cached (the inverse of
    /// [`OccIndex::insert_slot`]).
    fn remove_slot(&mut self, nt: NtId, node: NodeId) {
        let cache = self.rules[nt.index()].as_mut().expect("rule is cached");
        let Some(slot) = cache.slots.get_mut(node.index()).and_then(Option::take) else {
            return;
        };
        self.total_nodes -= 1;
        if let Some(callee) = slot.callee() {
            decrement(&mut cache.callees, callee);
        }
        cache.ends.remove(&node);
        for dep in cache.deps.remove(&node).iter().flatten() {
            self.dependents[dep.index()].remove(&(nt, node));
        }
        let Some(cand) = slot.cand() else { return };
        let id = cand.digram;
        decrement(&mut cache.counts, id);
        if cand.replayed {
            cache.equal_stale.insert(id);
        }
        if let Some(entry) = self.entries[id as usize].as_mut() {
            decrement(&mut entry.cand_rules, nt);
            if !entry.equal {
                entry.weight -= self.usage[nt.index()] as i128;
            }
        }
        self.touched.insert(id);
    }

    /// Retracts every slot of a rule and forgets the rule.
    fn drop_rule(&mut self, nt: NtId) {
        let Some(cache) = &self.rules[nt.index()] else {
            return;
        };
        let nodes: Vec<NodeId> = (0..cache.slots.len())
            .filter(|&i| cache.slots[i].is_some())
            .map(|i| NodeId(i as u32))
            .collect();
        for node in nodes {
            self.remove_slot(nt, node);
        }
        self.rules[nt.index()] = None;
        self.cached_rules -= 1;
    }

    /// Rebuilds the stale equal-label lists of one rule with a single
    /// preorder walk (the canonical within-rule replay order).
    fn reorder_equal(&mut self, g: &Grammar, nt: NtId) {
        let cache = self.rules[nt.index()]
            .as_mut()
            .expect("live rule is cached");
        if cache.equal_stale.is_empty() {
            return;
        }
        let stale = std::mem::take(&mut cache.equal_stale);
        // Only nodes labelled like a stale digram's child can generate it.
        let mut labels: Vec<NodeKind> = Vec::new();
        for id in &stale {
            cache.equal.remove(id);
            let child = self.digrams[*id as usize].child;
            if !labels.contains(&child) {
                labels.push(child);
            }
        }
        let rhs = &g.rule(nt).rhs;
        let mut walk = vec![rhs.root()];
        while let Some(node) = walk.pop() {
            walk.extend(rhs.children(node).iter().rev());
            if !labels.contains(&rhs.kind(node)) {
                continue;
            }
            let slot = cache.slots.get(node.index()).and_then(Option::as_ref);
            let Some(cand) = slot.and_then(|s| s.cand()) else {
                continue;
            };
            if cand.replayed && stale.contains(&cand.digram) {
                let ends = cache.ends[&node];
                cache.equal.entry(cand.digram).or_default().push(ends);
            }
        }
    }

    /// Replays the canonical greedy scan for one equal-label digram over the
    /// cached candidate lists of its contributing rules.
    fn replay_equal(&self, id: DigramId, order_pos: &[usize]) -> (i128, FxHashSet<NtId>) {
        let entry = self.entries[id as usize].as_ref().expect("entry exists");
        let mut contributing: Vec<NtId> = entry.cand_rules.keys().copied().collect();
        contributing.sort_unstable_by_key(|nt| order_pos[nt.index()]);
        let mut used_parents: FxHashSet<GrammarNode> = FxHashSet::default();
        let mut used_children: FxHashSet<GrammarNode> = FxHashSet::default();
        let mut weight: i128 = 0;
        let mut accepted: FxHashSet<NtId> = FxHashSet::default();
        for nt in contributing {
            let u = self.usage[nt.index()] as i128;
            let cache = self.rules[nt.index()]
                .as_ref()
                .expect("contributing rule is cached");
            for &(tp, tc) in cache.equal.get(&id).map(|v| v.as_slice()).unwrap_or(&[]) {
                if overlaps(&used_parents, &used_children, tp, tc) {
                    continue;
                }
                used_parents.insert(tp);
                used_children.insert(tc);
                weight += u;
                accepted.insert(nt);
            }
        }
        (weight, accepted)
    }

    /// Most frequent digram with weight ≥ `min_occurrences` whose pattern rank
    /// does not exceed `max_rank`, ties broken by [`Digram::sort_key`] — the
    /// digram the rebuild oracle would select. Rank-ineligible digrams are
    /// excluded permanently (ranks never change).
    pub fn select_best(
        &mut self,
        g: &Grammar,
        min_occurrences: u64,
        max_rank: usize,
    ) -> Option<Digram> {
        self.queue
            .pop_best(min_occurrences, |d| d.pattern_rank(g) <= max_rank)
    }

    /// The rules currently containing occurrence generators of `digram` —
    /// the rule set [`crate::replace::replace_all_occurrences`] must visit.
    pub fn generator_rules(&self, digram: &Digram) -> FxHashSet<NtId> {
        match self.entry(digram) {
            None => FxHashSet::default(),
            Some(e) if e.equal => e.accepted_rules.clone(),
            Some(e) => e.cand_rules.keys().copied().collect(),
        }
    }

    /// Permanently bans a digram from selection (its replacement produced
    /// nothing; retrying would never terminate).
    pub fn exclude(&mut self, digram: &Digram) {
        let entry = match self.ids.get(digram) {
            Some(&id) => self.entries[id as usize].as_deref_mut(),
            None => None,
        };
        let queued = entry.map_or(0, |e| std::mem::take(&mut e.queued));
        self.queue.exclude(digram, queued);
    }

    /// The aggregates of a digram with candidates.
    fn entry(&self, digram: &Digram) -> Option<&Entry> {
        let &id = self.ids.get(digram)?;
        self.entries[id as usize].as_deref()
    }

    /// Current anti-straight-line rule order (callees first, start rule last),
    /// identical to [`Grammar::anti_sl_order`] but derived from the cached
    /// call graph without walking rule bodies.
    pub fn order(&self) -> &[NtId] {
        &self.order
    }

    /// Reference-site counts of every live rule, summed from the cached
    /// call-graph multiplicities — the same numbers [`Grammar::ref_counts`]
    /// produces with a full body walk. O(call edges), no node walks; rules
    /// without references are simply absent.
    pub fn ref_counts(&self) -> FxHashMap<NtId, u64> {
        let mut out: FxHashMap<NtId, u64> = FxHashMap::default();
        for cache in self.rules.iter().flatten() {
            for (&callee, &count) in &cache.callees {
                *out.entry(callee).or_insert(0) += count;
            }
        }
        out
    }

    /// Live grammar edge count, maintained arithmetically alongside the rule
    /// caches (mirrors [`Grammar::edge_count`] without the walk).
    pub fn edge_count(&self) -> usize {
        self.total_nodes - self.cached_rules
    }

    /// Generator nodes whose candidate the index has computed since it was
    /// built, the initial scan included: the refresh work counter.
    pub fn rescanned_candidates(&self) -> usize {
        self.rescanned
    }

    /// Current usage-weighted occurrence count of a digram (0 if untracked).
    pub fn weight(&self, digram: &Digram) -> u64 {
        self.entry(digram).map_or(0, |e| clamp_weight(e.weight))
    }

    /// Number of digrams currently tracked.
    pub fn len(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Whether no digram is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Oracle-equivalent clamp: a sequence of saturating additions of
/// non-negative values equals the exact sum clamped to `u64::MAX`.
fn clamp_weight(weight: i128) -> u64 {
    weight.clamp(0, u64::MAX as i128) as u64
}

/// Decrements a multiplicity, dropping the key at zero.
fn decrement<K: std::hash::Hash + Eq>(counts: &mut FxHashMap<K, u64>, key: K) {
    if let Some(count) = counts.get_mut(&key) {
        *count -= 1;
        if *count == 0 {
            counts.remove(&key);
        }
    }
}

/// Kahn's algorithm over the cached call graph, byte-for-byte mirroring
/// [`Grammar::anti_sl_order`]'s tie-breaking (sorted seeds, sorted release
/// batches): callees first, start rule last. Dense `NtId`-indexed tables;
/// the caller lists are one flat array (compressed rows).
fn compute_order(live: &[NtId], rules: &[Option<RuleCache>]) -> Vec<NtId> {
    let width = rules.len();
    let cache = |nt: NtId| rules[nt.index()].as_ref().expect("live rule is cached");
    let mut remaining_out = vec![0usize; width];
    let mut row = vec![0usize; width + 1];
    for &nt in live {
        let callees = &cache(nt).callees;
        remaining_out[nt.index()] = callees.len();
        for callee in callees.keys() {
            row[callee.index() + 1] += 1;
        }
    }
    for i in 0..width {
        row[i + 1] += row[i];
    }
    let mut fill = row.clone();
    let mut callers = vec![NtId(0); row[width]];
    for &nt in live {
        for callee in cache(nt).callees.keys() {
            callers[fill[callee.index()]] = nt;
            fill[callee.index()] += 1;
        }
    }
    // `live` is ascending by id, so the seed queue is already sorted.
    let mut queue: Vec<NtId> = live
        .iter()
        .copied()
        .filter(|nt| remaining_out[nt.index()] == 0)
        .collect();
    let mut qi = 0;
    let mut released: Vec<NtId> = Vec::new();
    while qi < queue.len() {
        let nt = queue[qi];
        qi += 1;
        for &caller in &callers[row[nt.index()]..row[nt.index() + 1]] {
            let count = &mut remaining_out[caller.index()];
            *count -= 1;
            if *count == 0 {
                released.push(caller);
            }
        }
        released.sort_unstable();
        queue.append(&mut released);
    }
    debug_assert_eq!(queue.len(), live.len(), "call graph must be acyclic");
    queue
}

/// Usage from the cached call graph, indexed by [`NtId::index`]:
/// `usage(start) = 1`, every reference site contributes its caller's usage
/// (saturating), processed callers-first — the same fixpoint
/// [`Grammar::usage`] computes by walking rule bodies.
fn compute_usage(start: NtId, order: &[NtId], rules: &[Option<RuleCache>]) -> Vec<u64> {
    let mut usage = vec![0u64; rules.len()];
    usage[start.index()] = 1;
    for &caller in order.iter().rev() {
        let u = usage[caller.index()];
        if u == 0 {
            continue;
        }
        let cache = rules[caller.index()].as_ref().expect("live rule is cached");
        for (&callee, &count) in &cache.callees {
            let add = (u as u128)
                .saturating_mul(count as u128)
                .min(u64::MAX as u128) as u64;
            let slot = &mut usage[callee.index()];
            *slot = slot.saturating_add(add);
        }
    }
    usage
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occurrences::retrieve_occs;
    use crate::replace::replace_all_occurrences;
    use sltgrammar::text::parse_grammar;
    use treerepair::digram::pattern_rhs;

    /// Asserts the index agrees with a fresh [`retrieve_occs`] rebuild on the
    /// current grammar: same digrams with non-zero candidates, same clamped
    /// weights, same generator rule sets, same order and edge count.
    fn assert_matches_oracle(index: &OccIndex, g: &Grammar, frozen: &FrozenSet) {
        assert_eq!(
            index.order(),
            g.anti_sl_order().unwrap().as_slice(),
            "order"
        );
        assert_eq!(index.edge_count(), g.edge_count(), "edge count");
        let walked: FxHashMap<NtId, u64> = g
            .ref_counts()
            .into_iter()
            .filter(|&(_, c)| c > 0)
            .map(|(nt, c)| (nt, c as u64))
            .collect();
        assert_eq!(index.ref_counts(), walked, "call-graph reference counts");
        let oracle = retrieve_occs(g, frozen);
        for (digram, occs) in &oracle {
            assert_eq!(
                index.weight(digram),
                occs.weight,
                "weight mismatch for {digram:?}"
            );
            let expect: FxHashSet<NtId> = occs.generators.iter().map(|gen| gen.rule).collect();
            assert_eq!(
                index.generator_rules(digram),
                expect,
                "generator rules mismatch for {digram:?}"
            );
        }
        // The index may track entries whose accepted set is empty (all
        // candidates overlapped); they must carry weight 0 like the oracle.
        for (digram, entry) in index.digrams.iter().zip(&index.entries) {
            let Some(entry) = entry else { continue };
            if !oracle.contains_key(digram) {
                assert_eq!(clamp_weight(entry.weight), 0, "ghost entry {digram:?}");
            }
        }
        let usage = g.usage();
        for nt in g.nonterminals() {
            assert_eq!(index.usage[nt.index()], usage[&nt], "usage of {nt:?}");
        }
        assert_internally_consistent(index, g, frozen);
    }

    /// Asserts every cached slot is what a fresh scan of the current grammar
    /// yields, and that the per-rule aggregates, the equal-label lists and
    /// the dependency map agree with the slots.
    fn assert_internally_consistent(index: &OccIndex, g: &Grammar, frozen: &FrozenSet) {
        let mut fresh = index.clone();
        let mut dependency_edges = 0;
        for nt in g.nonterminals() {
            let cache = index.rules[nt.index()].as_ref().expect("live rule cached");
            let rhs = &g.rule(nt).rhs;
            let pre = rhs.preorder();
            let cached = cache.slots.iter().flatten().count();
            assert_eq!(cached, pre.len(), "slots of {nt:?}");
            let mut callees: FxHashMap<NtId, u64> = FxHashMap::default();
            let mut counts: FxHashMap<DigramId, u64> = FxHashMap::default();
            let mut equal: FxHashMap<DigramId, Vec<Ends>> = FxHashMap::default();
            let mut side_entries = 0;
            for &node in &pre {
                let slot = cache.slot(node).expect("reachable node has a slot");
                let scan = fresh.scan_node(g, nt, node, frozen);
                assert_eq!(slot, &scan.slot, "stale slot {nt:?}/{node:?}");
                assert_eq!(cache.deps(node), scan.deps, "stale deps {nt:?}/{node:?}");
                assert_eq!(cache.ends.get(&node), scan.ends.as_ref(), "stale ends");
                side_entries +=
                    usize::from(!scan.deps.is_empty()) + usize::from(scan.ends.is_some());
                for dep in cache.deps(node) {
                    assert!(index.dependents[dep.index()].contains(&(nt, node)));
                    dependency_edges += 1;
                }
                if let Some(callee) = slot.callee() {
                    *callees.entry(callee).or_insert(0) += 1;
                }
                if let Some(cand) = slot.cand() {
                    *counts.entry(cand.digram).or_insert(0) += 1;
                    if cand.replayed {
                        let ends = scan.ends.expect("replayed candidates have ends");
                        equal.entry(cand.digram).or_default().push(ends);
                    }
                }
            }
            assert_eq!(
                cache.deps.len() + cache.ends.len(),
                side_entries,
                "side-map entries of unreachable nodes in {nt:?}"
            );
            assert_eq!(cache.callees, callees, "callees of {nt:?}");
            assert_eq!(cache.counts, counts, "digram counts of {nt:?}");
            assert_eq!(cache.equal, equal, "equal-label lists of {nt:?}");
        }
        let mapped: usize = index.dependents.iter().map(|d| d.len()).sum();
        assert_eq!(mapped, dependency_edges, "dangling dependency edges");
    }

    fn digram(g: &Grammar, parent: &str, index: usize, child: &str) -> Digram {
        Digram {
            parent: NodeKind::Term(g.symbols.get(parent).unwrap()),
            child_index: index,
            child: NodeKind::Term(g.symbols.get(child).unwrap()),
        }
    }

    use sltgrammar::NodeKind;

    #[test]
    fn slots_stay_small() {
        // One slot per arena node of every rule: keep it at two `u32`s.
        assert_eq!(std::mem::size_of::<Option<Slot>>(), 8);
    }

    #[test]
    fn initial_build_matches_retrieve_occs() {
        let mut g = parse_grammar(
            "S -> r(C, r(C, r(C, r(A(#,#), A(#,#)))))\n\
             C -> A(B(#),#)\n\
             A -> a(y1, a(B(#), a(#, y2)))\n\
             B -> b(y1,#)",
        )
        .unwrap();
        let frozen = FrozenSet::default();
        let index = OccIndex::build(&mut g, &frozen);
        assert_matches_oracle(&index, &g, &frozen);
        assert!(!index.is_empty());
        assert!(index.len() >= 4);
    }

    #[test]
    fn refresh_tracks_a_replacement_round() {
        let mut g = parse_grammar("S -> f(a(b(#,#),#), f(a(b(#,#),#), a(b(#,#),#)))").unwrap();
        let mut frozen = FrozenSet::default();
        let mut index = OccIndex::build(&mut g, &frozen);
        assert_matches_oracle(&index, &g, &frozen);

        let d = digram(&g, "a", 0, "b");
        assert_eq!(index.weight(&d), 3);
        let rules = index.generator_rules(&d);
        let rank = d.pattern_rank(&g);
        let x = g.add_rule_fresh("X", rank, pattern_rhs(&g, &d));
        frozen.insert(x);
        let order = g.anti_sl_order().unwrap();
        let mut refs = crate::replace::RefCounts::from_counts(index.ref_counts());
        refs.add_rule_body(&g, x);
        let stats =
            replace_all_occurrences(&mut g, &d, x, &rules, &order, &frozen, true, &mut refs);
        assert_eq!(stats.replacements, 3);

        index.refresh(&mut g, &frozen);
        assert_matches_oracle(&index, &g, &frozen);
        assert_eq!(index.weight(&d), 0, "replaced digram must vanish");
    }

    #[test]
    fn refresh_follows_chain_dependencies_into_changed_callees() {
        // The (a,1,b) occurrences in S resolve through C and B; mutating B's
        // body must dirty the cached candidates of its dependents.
        let mut g = parse_grammar(
            "S -> f(a(B,#), a(B,#))\n\
             B -> b(c,#)",
        )
        .unwrap();
        let frozen = FrozenSet::default();
        let mut index = OccIndex::build(&mut g, &frozen);
        assert_matches_oracle(&index, &g, &frozen);

        // Relabel B's root: every chain through B now resolves differently.
        let b = g.nt_by_name("B").unwrap();
        let d_term = g.symbols.intern("d", 2).unwrap();
        let root = g.rule(b).rhs.root();
        g.rule_mut(b).rhs.set_kind(root, NodeKind::Term(d_term));
        index.refresh(&mut g, &frozen);
        assert_matches_oracle(&index, &g, &frozen);
        assert_eq!(index.weight(&digram(&g, "a", 0, "b")), 0);
        assert_eq!(index.weight(&digram(&g, "a", 0, "d")), 2);
    }

    #[test]
    fn equal_label_digrams_replay_the_canonical_overlap_resolution() {
        let mut g = parse_grammar("S -> a(#, a(#, A))\nA -> a(#, a(#, #))").unwrap();
        let frozen = FrozenSet::default();
        let index = OccIndex::build(&mut g, &frozen);
        assert_matches_oracle(&index, &g, &frozen);
        let a = NodeKind::Term(g.symbols.get("a").unwrap());
        let d = Digram {
            parent: a,
            child_index: 1,
            child: a,
        };
        // One occurrence in S, one in A (the crossing S→A pair is skipped).
        assert_eq!(index.weight(&d), 2);
        assert_eq!(index.generator_rules(&d).len(), 2);
    }

    #[test]
    fn a_rebuilt_parent_refreshes_the_resolved_ends() {
        // Rebuilding the outer `a` as a fresh node keeps every label and
        // digram but moves the tree parent of the (a,2,a) candidate below it.
        let mut g = parse_grammar("S -> f(a(#, a(#, #)), #)").unwrap();
        let frozen = FrozenSet::default();
        let mut index = OccIndex::build(&mut g, &frozen);
        let s = g.start();
        let rhs = &mut g.rule_mut(s).rhs;
        let outer = rhs.children(rhs.root())[0];
        let children = rhs.children(outer).to_vec();
        for &c in &children {
            rhs.detach(c);
        }
        let kind = rhs.kind(outer);
        let copy = rhs.add_node(kind, children);
        rhs.replace_subtree(outer, copy);
        index.refresh(&mut g, &frozen);
        assert_matches_oracle(&index, &g, &frozen);
    }

    #[test]
    fn excluded_digrams_never_come_back() {
        let mut g = parse_grammar("S -> f(a(b(#,#),#), a(b(#,#),#))").unwrap();
        let frozen = FrozenSet::default();
        let mut index = OccIndex::build(&mut g, &frozen);
        let d = digram(&g, "a", 0, "b");
        index.exclude(&d);
        assert_ne!(index.select_best(&g, 2, 4), Some(d));
        index.refresh(&mut g, &frozen);
        assert_ne!(index.select_best(&g, 2, 4), Some(d));
    }

    #[test]
    fn usage_shifts_propagate_as_weight_deltas() {
        // Deleting one reference to A halves usage(A); the weights of the
        // digrams generated inside A must follow without a rescan of A.
        let mut g = parse_grammar(
            "S -> f(A, A)\n\
             A -> g(a(b(#,#),#))",
        )
        .unwrap();
        let frozen = FrozenSet::default();
        let mut index = OccIndex::build(&mut g, &frozen);
        let d = digram(&g, "a", 0, "b");
        assert_eq!(index.weight(&d), 2);
        // Replace the second A reference in S by a null leaf.
        let s = g.start();
        let site = {
            let rhs = &g.rule(s).rhs;
            rhs.preorder()
                .into_iter()
                .filter(|&n| rhs.kind(n).is_nt())
                .nth(1)
                .unwrap()
        };
        let null = g.symbols.null();
        let rhs = &mut g.rule_mut(s).rhs;
        let leaf = rhs.add_leaf(NodeKind::Term(null));
        rhs.replace_subtree(site, leaf);
        index.refresh(&mut g, &frozen);
        assert_matches_oracle(&index, &g, &frozen);
        assert_eq!(index.weight(&d), 1);
    }

    /// Deterministic xorshift stream for the randomized test.
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// A random document built from a few repeated motifs, so that its
    /// grammar has nested rules with parameters.
    fn random_document(rng: &mut XorShift) -> String {
        fn element(rng: &mut XorShift, depth: usize, out: &mut String) {
            let label = ["a", "b", "c", "d"][rng.below(4)];
            out.push('<');
            out.push_str(label);
            out.push('>');
            if depth > 0 {
                for _ in 0..rng.below(4) {
                    element(rng, depth - 1, out);
                }
            }
            out.push_str("</");
            out.push_str(label);
            out.push('>');
        }
        let motifs: Vec<String> = (0..3)
            .map(|_| {
                let mut m = String::new();
                element(rng, 3, &mut m);
                m
            })
            .collect();
        let mut doc = String::from("<r>");
        for _ in 0..6 + rng.below(10) {
            if rng.below(4) == 0 {
                element(rng, 2, &mut doc);
            } else {
                doc.push_str(&motifs[rng.below(motifs.len())]);
            }
        }
        doc.push_str("</r>");
        doc
    }

    /// One replacement round exactly as `GrammarRePair::run_incremental`
    /// runs it. Returns whether a digram was selected.
    fn replacement_round(
        g: &mut Grammar,
        index: &mut OccIndex,
        frozen: &mut FrozenSet,
        optimize: bool,
    ) -> bool {
        let Some(d) = index.select_best(g, 2, 4) else {
            return false;
        };
        let rules = index.generator_rules(&d);
        let rank = d.pattern_rank(g);
        let x = g.add_rule_fresh("X", rank, pattern_rhs(g, &d));
        frozen.insert(x);
        let mut refs = crate::replace::RefCounts::from_counts(index.ref_counts());
        refs.add_rule_body(g, x);
        let order = index.order().to_vec();
        let round = replace_all_occurrences(g, &d, x, &rules, &order, frozen, optimize, &mut refs);
        if round.replacements == 0 {
            g.remove_rule(x);
            frozen.remove(&x);
            index.exclude(&d);
        }
        true
    }

    /// One random splice on a non-frozen rule: inline a reference, relabel a
    /// terminal (or, to change what callers' chains resolve to, the parent
    /// of a parameter), replace a parameter-free subtree by a null leaf, or
    /// rebuild a node as a fresh copy with the same label and children (new
    /// identity, same derived tree).
    fn random_splice(g: &mut Grammar, frozen: &FrozenSet, rng: &mut XorShift) {
        let rules: Vec<NtId> = g
            .nonterminals()
            .into_iter()
            .filter(|nt| !frozen.contains(nt))
            .collect();
        let rule = rules[rng.below(rules.len())];
        let rhs = &g.rule(rule).rhs;
        let pre = rhs.preorder();
        let mut node = pre[rng.below(pre.len())];
        let op = rng.below(5);
        if op == 2 {
            let params = rhs.param_nodes();
            if params.is_empty() {
                return;
            }
            node = rhs
                .parent(params[rng.below(params.len())].1)
                .expect("parameter has a parent");
        }
        match (op, rhs.kind(node)) {
            (0, NodeKind::Nt(callee)) if !frozen.contains(&callee) => {
                g.inline_at(rule, node);
            }
            (1 | 2, NodeKind::Term(t)) => {
                let rank = g.symbols.rank(t);
                let name = format!("z{}r{rank}", rng.below(2));
                let z = g.symbols.intern(&name, rank).unwrap();
                g.rule_mut(rule).rhs.set_kind(node, NodeKind::Term(z));
            }
            (3, _) => {
                let has_param = rhs
                    .preorder_from(node)
                    .into_iter()
                    .any(|n| rhs.kind(n).is_param());
                if node == rhs.root() || has_param {
                    return;
                }
                let null = g.symbols.null();
                let rhs = &mut g.rule_mut(rule).rhs;
                let leaf = rhs.add_leaf(NodeKind::Term(null));
                rhs.replace_subtree(node, leaf);
            }
            (4, kind) if node != rhs.root() => {
                let children = rhs.children(node).to_vec();
                let rhs = &mut g.rule_mut(rule).rhs;
                for &c in &children {
                    rhs.detach(c);
                }
                let copy = rhs.add_node(kind, children);
                rhs.replace_subtree(node, copy);
            }
            _ => {}
        }
    }

    #[test]
    fn refresh_matches_the_oracle_across_random_rounds_and_splices() {
        use crate::repair::GrammarRePair;
        use xmltree::parse::parse_xml;
        let mut rng = XorShift(0x2545_f491_4f6c_dd1d);
        for case in 0..16 {
            let doc = random_document(&mut rng);
            let (mut g, _) = GrammarRePair::default().compress_xml(&parse_xml(&doc).unwrap());
            let optimize = case % 2 == 0;
            let mut frozen = FrozenSet::default();
            let mut index = OccIndex::build(&mut g, &frozen);
            assert_matches_oracle(&index, &g, &frozen);
            for step in 0..14 {
                match rng.below(4) {
                    0 | 1 => {
                        if !replacement_round(&mut g, &mut index, &mut frozen, optimize) {
                            random_splice(&mut g, &frozen, &mut rng);
                        }
                    }
                    2 => random_splice(&mut g, &frozen, &mut rng),
                    _ => {
                        for _ in 0..3 {
                            random_splice(&mut g, &frozen, &mut rng);
                        }
                        if step % 5 == 4 {
                            g.gc();
                        }
                    }
                }
                g.validate().unwrap();
                index.refresh(&mut g, &frozen);
                assert_matches_oracle(&index, &g, &frozen);
            }
        }
    }

    #[test]
    fn a_small_update_rescans_a_small_share_of_the_start_rule() {
        use crate::repair::GrammarRePair;
        use crate::update::apply_update;
        use xmltree::parse::parse_xml;
        use xmltree::updates::UpdateOp;
        // A long, irregular start rule: distinct record shapes resist
        // compression, so most of the document stays in the start rule.
        let mut doc = String::from("<log>");
        let labels = ["ts", "host", "msg", "code", "user", "path", "ref", "agent"];
        for i in 0..400usize {
            doc.push_str("<e>");
            for (k, label) in labels.iter().enumerate() {
                if (i >> k) & 1 == 1 || (i * 7 + k) % 5 == 0 {
                    doc.push_str(&format!("<{label}/>"));
                }
            }
            doc.push_str("</e>");
        }
        doc.push_str("</log>");
        let (mut g, _) = GrammarRePair::default().compress_xml(&parse_xml(&doc).unwrap());
        let start_nodes = g.rule(g.start()).rhs.node_count();
        for target in [5, 40] {
            let fragment = parse_xml("<e><fresh/><ts/></e>").unwrap();
            apply_update(&mut g, &UpdateOp::InsertBefore { target, fragment }).unwrap();
        }
        let stats = GrammarRePair::default().recompress(&mut g);
        assert!(
            stats.rounds > 0,
            "the update leaves something to recompress"
        );
        let rule_granular = stats.rounds * start_nodes;
        assert!(
            stats.rescanned_candidates * 5 < rule_granular,
            "rescanned {} candidates over {} rounds of a {start_nodes}-node start rule",
            stats.rescanned_candidates,
            stats.rounds
        );
    }
}
