//! Arena-based right-hand-side trees of grammar rules.
//!
//! An [`RhsTree`] stores the tree of one rule right-hand side in a flat arena of
//! nodes with parent pointers. All structural operations the compression and
//! update algorithms need — inlining a callee rule at a reference, replacing a
//! digram occurrence by a fresh nonterminal, exporting a fragment into a new
//! rule — are local splice operations on this arena.
//!
//! Nodes detached by splices remain allocated as garbage until [`RhsTree::compact`]
//! is called; all size queries therefore traverse from the root and never scan
//! the raw arena.
//!
//! Every mutating operation bumps a monotonically increasing [`RhsTree::version`]
//! counter. Incremental consumers (the grammar-side occurrence index, caches of
//! rule sizes) record the version they last observed and treat any mismatch as
//! "this right-hand side changed, re-derive everything you cached about it".
//!
//! A consumer that must know *which* nodes changed (the grammar-side
//! occurrence index, refreshed after every GrammarRePair round) additionally
//! holds a splice journal: between [`RhsTree::begin_journal`] and
//! [`RhsTree::end_journal`], every mutator records each node it creates,
//! relabels, attaches or detaches and each node whose child index it shifts,
//! and [`RhsTree::take_journal`] drains them. With no journal held the mutators
//! record nothing, and clones never carry one.

use crate::fxhash::FxHashMap;
use crate::node::{NodeId, NodeKind};

/// One node of a right-hand-side tree.
#[derive(Debug, Clone)]
pub struct RhsNode {
    /// Label of the node.
    pub kind: NodeKind,
    /// Parent node, `None` for the root and for detached (garbage) nodes.
    pub parent: Option<NodeId>,
    /// Children in left-to-right order; length must equal the label's rank.
    pub children: Vec<NodeId>,
}

/// Splice journal of an [`RhsTree`] (see the module docs).
#[derive(Debug, Default)]
enum Journal {
    /// Nothing is recorded.
    #[default]
    Off,
    /// Nodes changed since the last drain, possibly repeated.
    On(Vec<NodeId>),
    /// [`RhsTree::compact`] renumbered the nodes since the last drain.
    Lost,
}

/// Arena tree representing one rule right-hand side.
#[derive(Debug)]
pub struct RhsTree {
    nodes: Vec<RhsNode>,
    root: NodeId,
    /// Mutation counter: bumped by every structural or label change. See the
    /// module docs; cloning preserves the current value.
    version: u64,
    journal: Journal,
}

impl Clone for RhsTree {
    /// Clones the tree and its version; the clone holds no journal.
    fn clone(&self) -> Self {
        RhsTree {
            nodes: self.nodes.clone(),
            root: self.root,
            version: self.version,
            journal: Journal::Off,
        }
    }
}

impl RhsTree {
    /// Creates a tree consisting of a single node with the given label.
    pub fn singleton(kind: NodeKind) -> Self {
        RhsTree {
            nodes: vec![RhsNode {
                kind,
                parent: None,
                children: Vec::new(),
            }],
            root: NodeId(0),
            version: 0,
            journal: Journal::Off,
        }
    }

    /// Current mutation version. Any mutating call makes this strictly larger;
    /// two reads returning the same value bracket a span with no changes.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Starts recording a splice journal, discarding any earlier one.
    pub fn begin_journal(&mut self) {
        self.journal = Journal::On(Vec::new());
    }

    /// Stops recording and drops the journal.
    pub fn end_journal(&mut self) {
        self.journal = Journal::Off;
    }

    /// Drains the journal: the nodes created, relabelled, attached, detached
    /// or moved to another child index since the last drain (in mutation
    /// order, possibly repeated, garbage included). Recording continues.
    ///
    /// Returns `None` when the changes cannot be named — no journal is held,
    /// or [`RhsTree::compact`] renumbered the nodes — so the caller must treat
    /// every node as changed.
    pub fn take_journal(&mut self) -> Option<Vec<NodeId>> {
        match &mut self.journal {
            Journal::On(nodes) => Some(std::mem::take(nodes)),
            Journal::Lost => {
                self.journal = Journal::On(Vec::new());
                None
            }
            Journal::Off => None,
        }
    }

    /// Records `id` in the journal, if one is held.
    #[inline]
    fn note(&mut self, id: NodeId) {
        if let Journal::On(nodes) = &mut self.journal {
            nodes.push(id);
        }
    }

    /// Adds a floating node (no parent) with already-added children.
    ///
    /// The children must currently be floating (roots of detached subtrees or
    /// freshly added nodes); they are re-parented under the new node.
    pub fn add_node(&mut self, kind: NodeKind, children: Vec<NodeId>) -> NodeId {
        self.version += 1;
        let id = NodeId(self.nodes.len() as u32);
        self.note(id);
        for &c in &children {
            debug_assert!(self.nodes[c.index()].parent.is_none(), "child must be floating");
            self.nodes[c.index()].parent = Some(id);
            self.note(c);
        }
        self.nodes.push(RhsNode {
            kind,
            parent: None,
            children,
        });
        id
    }

    /// Adds a floating leaf node.
    pub fn add_leaf(&mut self, kind: NodeKind) -> NodeId {
        self.add_node(kind, Vec::new())
    }

    /// Makes `id` the root of the tree. The node must be floating.
    pub fn set_root(&mut self, id: NodeId) {
        debug_assert!(self.nodes[id.index()].parent.is_none());
        self.version += 1;
        self.note(self.root);
        self.note(id);
        self.root = id;
    }

    /// Root node of the tree.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Label of a node.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id.index()].kind
    }

    /// Overwrites the label of a node (used by rename updates). The caller is
    /// responsible for keeping the child count consistent with the new label's
    /// rank.
    pub fn set_kind(&mut self, id: NodeId, kind: NodeKind) {
        self.version += 1;
        self.note(id);
        self.nodes[id.index()].kind = kind;
    }

    /// Children of a node.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// Parent of a node (`None` for the root).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// Position of `id` among its parent's children (0-based).
    pub fn child_index(&self, id: NodeId) -> Option<usize> {
        let p = self.parent(id)?;
        self.children(p).iter().position(|&c| c == id)
    }

    /// Total number of nodes in the arena, including garbage. Useful only as a
    /// capacity indicator; use [`RhsTree::node_count`] for the logical size.
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes reachable from the root.
    pub fn node_count(&self) -> usize {
        self.preorder().len()
    }

    /// Number of edges reachable from the root (`node_count - 1`).
    pub fn edge_count(&self) -> usize {
        self.node_count().saturating_sub(1)
    }

    /// Number of nodes in the subtree rooted at `id`.
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.preorder_from(id).len()
    }

    /// Preorder traversal of the whole tree.
    pub fn preorder(&self) -> Vec<NodeId> {
        self.preorder_from(self.root)
    }

    /// Preorder traversal of the subtree rooted at `id`.
    pub fn preorder_from(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            out.push(n);
            let ch = self.children(n);
            for &c in ch.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// The `n`-th node (1-based) of the tree in preorder — the paper's `(R, n)`
    /// addressing. Returns `None` if `n` is 0 or exceeds the node count.
    pub fn nth_preorder(&self, n: usize) -> Option<NodeId> {
        if n == 0 {
            return None;
        }
        self.preorder().get(n - 1).copied()
    }

    /// 1-based preorder index of a node (inverse of [`RhsTree::nth_preorder`]).
    pub fn preorder_index(&self, id: NodeId) -> Option<usize> {
        self.preorder().iter().position(|&x| x == id).map(|i| i + 1)
    }

    /// Parameter nodes `(index, node)` in preorder.
    pub fn param_nodes(&self) -> Vec<(u32, NodeId)> {
        self.preorder()
            .into_iter()
            .filter_map(|id| self.kind(id).as_param().map(|p| (p, id)))
            .collect()
    }

    /// Finds the unique node labelled with parameter `i` (0-based), if
    /// present: the first one in preorder. Walks the tree through its parent
    /// links without allocating and stops at the match.
    pub fn find_param(&self, i: u32) -> Option<NodeId> {
        let target = NodeKind::Param(i);
        let mut node = self.root;
        loop {
            if self.kind(node) == target {
                return Some(node);
            }
            if let Some(&first) = self.children(node).first() {
                node = first;
                continue;
            }
            // Climb to the nearest ancestor with a next sibling.
            loop {
                if node == self.root {
                    return None;
                }
                let parent = self.parent(node).expect("non-root node has a parent");
                let siblings = self.children(parent);
                let pos = siblings
                    .iter()
                    .position(|&c| c == node)
                    .expect("parent/child links consistent");
                if let Some(&next) = siblings.get(pos + 1) {
                    node = next;
                    break;
                }
                node = parent;
            }
        }
    }

    /// Detaches `id` from its parent, making it a floating subtree root.
    /// Does nothing if `id` is the root or already floating.
    pub fn detach(&mut self, id: NodeId) {
        self.version += 1;
        if let Some(p) = self.nodes[id.index()].parent {
            let pos = self.nodes[p.index()]
                .children
                .iter()
                .position(|&c| c == id)
                .expect("parent/child links consistent");
            self.nodes[p.index()].children.remove(pos);
            self.nodes[id.index()].parent = None;
            self.note(id);
            // The later siblings moved one child index to the left.
            for k in pos..self.nodes[p.index()].children.len() {
                let sibling = self.nodes[p.index()].children[k];
                self.note(sibling);
            }
        }
    }

    /// Replaces the subtree rooted at `at` by the floating subtree rooted at
    /// `replacement`. The old subtree at `at` becomes floating garbage.
    pub fn replace_subtree(&mut self, at: NodeId, replacement: NodeId) {
        debug_assert!(self.nodes[replacement.index()].parent.is_none());
        self.version += 1;
        self.note(at);
        self.note(replacement);
        if at == self.root {
            self.nodes[at.index()].parent = None;
            self.root = replacement;
            return;
        }
        let parent = self.nodes[at.index()].parent.expect("non-root node has a parent");
        let pos = self.nodes[parent.index()]
            .children
            .iter()
            .position(|&c| c == at)
            .expect("parent/child links consistent");
        self.nodes[parent.index()].children[pos] = replacement;
        self.nodes[replacement.index()].parent = Some(parent);
        self.nodes[at.index()].parent = None;
    }

    /// Attaches the floating subtree `child` as the last child of `parent`.
    pub fn push_child(&mut self, parent: NodeId, child: NodeId) {
        debug_assert!(self.nodes[child.index()].parent.is_none());
        self.version += 1;
        self.note(child);
        self.nodes[parent.index()].children.push(child);
        self.nodes[child.index()].parent = Some(parent);
    }

    /// Copies the subtree rooted at `src_node` of `src` into this arena and
    /// returns the id of the (floating) copy root. Parameters are copied verbatim.
    pub fn clone_subtree_from(&mut self, src: &RhsTree, src_node: NodeId) -> NodeId {
        // Iterative post-order copy to avoid recursion depth limits on deep trees.
        // We copy children first, then the node itself.
        let order = src.preorder_from(src_node);
        let mut new_ids: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        for &n in order.iter().rev() {
            let child_copies: Vec<NodeId> = src
                .children(n)
                .iter()
                .map(|c| {
                    let id = new_ids[c];
                    // children were added floating; keep them floating until attached below
                    id
                })
                .collect();
            let id = self.add_node(src.kind(n), child_copies);
            new_ids.insert(n, id);
        }
        new_ids[&src_node]
    }

    /// Copies the subtree rooted at `node` of this tree and returns the floating copy root.
    pub fn clone_subtree(&mut self, node: NodeId) -> NodeId {
        let order = self.preorder_from(node);
        let mut new_ids: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        for &n in order.iter().rev() {
            let child_copies: Vec<NodeId> =
                self.children(n).iter().map(|c| new_ids[c]).collect();
            let id = self.add_node(self.kind(n), child_copies);
            new_ids.insert(n, id);
        }
        new_ids[&node]
    }

    /// Inlines `rule_rhs` (the right-hand side of the rule labelling node `at`,
    /// which must be a nonterminal reference) at `at`.
    ///
    /// The `j`-th parameter of the copy is substituted by the subtree that was
    /// the `j`-th child (argument) of `at`. Returns the id of the root of the
    /// inlined copy, which now occupies `at`'s former position.
    pub fn inline_at(&mut self, at: NodeId, rule_rhs: &RhsTree) -> NodeId {
        debug_assert!(self.kind(at).is_nt(), "inline_at target must be a nonterminal node");
        self.version += 1;
        // Detach argument subtrees.
        let args: Vec<NodeId> = self.children(at).to_vec();
        for &a in &args {
            self.nodes[a.index()].parent = None;
            self.note(a);
        }
        self.nodes[at.index()].children.clear();

        // Copy the rule body, substituting parameters by the argument subtrees.
        let order = rule_rhs.preorder();
        let mut new_ids: FxHashMap<NodeId, NodeId> =
            FxHashMap::with_capacity_and_hasher(order.len(), Default::default());
        for &n in order.iter().rev() {
            match rule_rhs.kind(n) {
                NodeKind::Param(j) => {
                    let arg = args[j as usize];
                    new_ids.insert(n, arg);
                }
                kind => {
                    let child_copies: Vec<NodeId> =
                        rule_rhs.children(n).iter().map(|c| new_ids[c]).collect();
                    let id = self.add_node(kind, child_copies);
                    new_ids.insert(n, id);
                }
            }
        }
        let new_root = new_ids[&rule_rhs.root()];
        self.replace_subtree(at, new_root);
        new_root
    }

    /// Rebuilds the arena keeping only nodes reachable from the root.
    ///
    /// All previously held [`NodeId`]s are invalidated; only call this when no
    /// external node ids are retained.
    pub fn compact(&mut self) {
        self.version += 1;
        if matches!(self.journal, Journal::On(_)) {
            self.journal = Journal::Lost;
        }
        let order = self.preorder();
        let mut map: FxHashMap<NodeId, NodeId> =
            FxHashMap::with_capacity_and_hasher(order.len(), Default::default());
        for (i, &old) in order.iter().enumerate() {
            map.insert(old, NodeId(i as u32));
        }
        let mut nodes = Vec::with_capacity(order.len());
        for &old in &order {
            let n = &self.nodes[old.index()];
            nodes.push(RhsNode {
                kind: n.kind,
                parent: n.parent.map(|p| map[&p]),
                children: n.children.iter().map(|c| map[c]).collect(),
            });
        }
        self.nodes = nodes;
        self.root = map[&self.root];
    }

    /// Checks structural invariants: parent/child links are consistent and the
    /// reachable part of the arena forms a tree rooted at `root`.
    pub fn check_links(&self) -> bool {
        let order = self.preorder();
        let mut seen = std::collections::HashSet::new();
        for &n in &order {
            if !seen.insert(n) {
                return false; // node reachable twice => not a tree
            }
            for &c in self.children(n) {
                if self.parent(c) != Some(n) {
                    return false;
                }
            }
        }
        self.parent(self.root).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::TermId;

    fn term(i: u32) -> NodeKind {
        NodeKind::Term(TermId(i))
    }

    /// Builds a(b, c(d)) and returns (tree, ids).
    fn sample() -> (RhsTree, Vec<NodeId>) {
        let mut t = RhsTree::singleton(term(0)); // a
        let a = t.root();
        let b = t.add_leaf(term(1));
        let d = t.add_leaf(term(3));
        let c = t.add_node(term(2), vec![d]);
        t.push_child(a, b);
        t.push_child(a, c);
        (t, vec![a, b, c, d])
    }

    #[test]
    fn build_and_navigate() {
        let (t, ids) = sample();
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.edge_count(), 3);
        assert_eq!(t.children(ids[0]), &[ids[1], ids[2]]);
        assert_eq!(t.parent(ids[3]), Some(ids[2]));
        assert_eq!(t.child_index(ids[2]), Some(1));
        assert_eq!(t.child_index(ids[0]), None);
        assert!(t.check_links());
    }

    #[test]
    fn preorder_addressing_is_one_based() {
        let (t, ids) = sample();
        let pre = t.preorder();
        assert_eq!(pre, vec![ids[0], ids[1], ids[2], ids[3]]);
        assert_eq!(t.nth_preorder(1), Some(ids[0]));
        assert_eq!(t.nth_preorder(4), Some(ids[3]));
        assert_eq!(t.nth_preorder(0), None);
        assert_eq!(t.nth_preorder(5), None);
        assert_eq!(t.preorder_index(ids[2]), Some(3));
    }

    #[test]
    fn replace_subtree_splices_correctly() {
        let (mut t, ids) = sample();
        let fresh = t.add_leaf(term(9));
        t.replace_subtree(ids[2], fresh);
        assert_eq!(t.children(ids[0]), &[ids[1], fresh]);
        assert_eq!(t.node_count(), 3);
        assert!(t.check_links());

        // Replacing the root swaps the root pointer.
        let fresh2 = t.add_leaf(term(8));
        let root = t.root();
        t.replace_subtree(root, fresh2);
        assert_eq!(t.root(), fresh2);
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn clone_subtree_duplicates_structure() {
        let (mut t, ids) = sample();
        let copy = t.clone_subtree(ids[2]); // c(d)
        assert_eq!(t.kind(copy), term(2));
        assert_eq!(t.children(copy).len(), 1);
        assert_eq!(t.kind(t.children(copy)[0]), term(3));
        assert!(t.parent(copy).is_none());
        // Original untouched.
        assert_eq!(t.node_count(), 4);
    }

    #[test]
    fn inline_substitutes_parameters_by_arguments() {
        // Rule body: f(y1, g(y2))   — inline at node Nt with args (b, c)
        use crate::symbol::NtId;
        let mut body = RhsTree::singleton(term(10)); // f
        let f = body.root();
        let y1 = body.add_leaf(NodeKind::Param(0));
        let y2 = body.add_leaf(NodeKind::Param(1));
        let g = body.add_node(term(11), vec![y2]);
        body.push_child(f, y1);
        body.push_child(f, g);

        // Host: root = a(A(b, c))
        let mut host = RhsTree::singleton(term(0));
        let a = host.root();
        let b = host.add_leaf(term(1));
        let c = host.add_leaf(term(2));
        let call = host.add_node(NodeKind::Nt(NtId(0)), vec![b, c]);
        host.push_child(a, call);

        let new_root = host.inline_at(call, &body);
        // Expect a(f(b, g(c)))
        assert_eq!(host.kind(new_root), term(10));
        assert_eq!(host.children(a), &[new_root]);
        let f_children = host.children(new_root).to_vec();
        assert_eq!(f_children.len(), 2);
        assert_eq!(host.kind(f_children[0]), term(1));
        assert_eq!(host.kind(f_children[1]), term(11));
        assert_eq!(host.kind(host.children(f_children[1])[0]), term(2));
        assert_eq!(host.node_count(), 5);
        assert!(host.check_links());
    }

    #[test]
    fn compact_preserves_shape() {
        let (mut t, ids) = sample();
        let fresh = t.add_leaf(term(9));
        t.replace_subtree(ids[2], fresh); // creates garbage
        let before: Vec<_> = t.preorder().iter().map(|&n| t.kind(n)).collect();
        t.compact();
        let after: Vec<_> = t.preorder().iter().map(|&n| t.kind(n)).collect();
        assert_eq!(before, after);
        assert_eq!(t.arena_len(), t.node_count());
        assert!(t.check_links());
    }

    #[test]
    fn detach_and_push_child_move_subtrees() {
        let (mut t, ids) = sample();
        t.detach(ids[1]); // detach b
        assert_eq!(t.node_count(), 3);
        assert!(t.parent(ids[1]).is_none());
        t.push_child(ids[3], ids[1]); // d gets child b (ranks not checked here)
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.parent(ids[1]), Some(ids[3]));
    }

    #[test]
    fn version_bumps_on_every_mutation() {
        let (mut t, ids) = sample();
        let mut last = t.version();
        let expect_bump = |t: &RhsTree, last: &mut u64, what: &str| {
            assert!(t.version() > *last, "{what} must bump the version");
            *last = t.version();
        };
        t.add_leaf(term(7));
        expect_bump(&t, &mut last, "add_leaf");
        t.set_kind(ids[1], term(8));
        expect_bump(&t, &mut last, "set_kind");
        t.detach(ids[1]);
        expect_bump(&t, &mut last, "detach");
        t.push_child(ids[0], ids[1]);
        expect_bump(&t, &mut last, "push_child");
        let fresh = t.add_leaf(term(9));
        t.replace_subtree(ids[2], fresh);
        expect_bump(&t, &mut last, "replace_subtree");
        t.compact();
        expect_bump(&t, &mut last, "compact");
        // Read-only calls leave it alone.
        let _ = t.preorder();
        let _ = t.node_count();
        assert_eq!(t.version(), last);
    }

    #[test]
    fn param_helpers() {
        let mut t = RhsTree::singleton(term(0));
        let r = t.root();
        let p0 = t.add_leaf(NodeKind::Param(0));
        let p1 = t.add_leaf(NodeKind::Param(1));
        t.push_child(r, p1);
        t.push_child(r, p0);
        let params = t.param_nodes();
        assert_eq!(params.len(), 2);
        assert_eq!(t.find_param(0), Some(p0));
        assert_eq!(t.find_param(1), Some(p1));
        assert_eq!(t.find_param(2), None);
    }

    /// Deterministic xorshift stream for the randomized tests.
    struct XorShift(u64);

    impl XorShift {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    #[test]
    fn find_param_agrees_with_param_nodes_on_random_trees() {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        for _ in 0..300 {
            let mut t = RhsTree::singleton(term(0));
            let mut nodes = vec![t.root()];
            for _ in 0..rng.below(40) {
                let parent = nodes[rng.below(nodes.len())];
                let leaf = t.add_leaf(term(1));
                t.push_child(parent, leaf);
                nodes.push(leaf);
            }
            // Label random nodes as parameters (repeats included), then cut a
            // random subtree loose so garbage parameters exist too.
            for _ in 0..rng.below(6) {
                let node = nodes[rng.below(nodes.len())];
                t.set_kind(node, NodeKind::Param(rng.below(4) as u32));
            }
            let cut = nodes[rng.below(nodes.len())];
            if cut != t.root() {
                t.detach(cut);
            }
            let params = t.param_nodes();
            for i in 0..5 {
                let first = params.iter().find(|&&(p, _)| p == i).map(|&(_, n)| n);
                assert_eq!(t.find_param(i), first, "parameter y{}", i + 1);
            }
        }
    }

    #[test]
    fn journal_records_changed_nodes_only_while_held() {
        let (mut t, ids) = sample();
        assert_eq!(t.take_journal(), None, "no journal held");
        t.set_kind(ids[1], term(7));
        t.begin_journal();
        assert_eq!(t.take_journal(), Some(vec![]));

        // Detaching b moves c to child index 0: both are recorded.
        t.detach(ids[1]);
        let mut got = t.take_journal().unwrap();
        got.sort();
        assert_eq!(got, vec![ids[1], ids[2]]);

        t.set_kind(ids[3], term(8));
        let fresh = t.add_leaf(term(9));
        t.replace_subtree(ids[2], fresh);
        let got = t.take_journal().unwrap();
        for node in [ids[3], fresh, ids[2]] {
            assert!(got.contains(&node), "{node:?} missing from {got:?}");
        }

        // Clones start without a journal; compaction loses the node names.
        let mut copy = t.clone();
        copy.set_kind(fresh, term(6));
        assert_eq!(copy.take_journal(), None);
        t.compact();
        assert_eq!(t.take_journal(), None, "compaction renumbers nodes");
        assert_eq!(t.take_journal(), Some(vec![]), "recording resumes");

        t.end_journal();
        let root = t.root();
        t.set_kind(root, term(5));
        assert_eq!(t.take_journal(), None);
    }
}
