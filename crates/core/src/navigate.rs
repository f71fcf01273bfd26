//! Read-only navigation over the derived tree of a grammar — no decompression.
//!
//! The paper motivates grammar-compressed XML as a drop-in replacement for
//! memory-hungry DOM trees; reads must therefore work directly on the grammar.
//! This module provides a [`Cursor`] that walks the derived binary tree
//! `val(G)` by maintaining a stack of rule frames: descending into a
//! nonterminal reference pushes the callee rule, reaching a formal parameter
//! pops back into the caller and continues in the corresponding argument
//! subtree.
//!
//! # NavTables
//!
//! All navigation resolves through [`NavTables`], a per-rule precomputation
//! built once per *grammar version* (O(grammar) time and space) and shared by
//! any number of cursors, iterators and query evaluations:
//!
//! * the rule body flattened into **preorder arrays** (label kinds, subtree
//!   sizes, parent positions, child indices), so stepping through a rule is
//!   array arithmetic instead of arena-pointer chasing;
//! * the **resolved first terminal** of every position — the terminal a
//!   cursor would land on when descending there, or the parameter through
//!   which resolution escapes the rule. This lets the document view peek at
//!   a child's label (`doc_first_child` / `doc_next_sibling` null checks)
//!   without moving, where the previous implementation cloned the whole
//!   frame stack per step;
//! * the **position of every formal parameter**, making the `up()` transition
//!   through a call site O(1) where it previously rescanned the callee body;
//! * **element counts** (`own_elems`, per-position `elems_at`) and the
//!   **parameter hole layout** (document-order offsets of the parameter
//!   holes inside `val(A)`), which power the output-sensitive
//!   [`crate::query::PathQuery::evaluate`] skip arithmetic.
//!
//! # Invalidation contract
//!
//! `NavTables` snapshots every rule's [`sltgrammar::RhsTree::version`]
//! counter at build time; [`NavTables::is_current`] re-checks the live rule
//! set and versions in O(rules). Tables are **immutable**: after any grammar
//! mutation (updates, recompression, isolation) a new snapshot must be built.
//! Holders that cache tables — [`crate::session::CompressedDom`] keeps one
//! behind an `Arc` — revalidate on access and rebuild lazily, so cursors
//! handed out after a mutation always see fresh tables. A live [`Cursor`]
//! borrows the grammar immutably for its whole life, so it can never observe
//! a mutation mid-walk; the differential suite
//! (`tests/navigation_differential.rs`) pins the rebuild-after-mutation
//! behaviour across update/recompress cycles.
//!
//! On top of the binary-tree cursor, the module offers document-view
//! navigation (first child / next sibling / parent of *elements*), a
//! streaming preorder iterator over terminal labels that advances through
//! whole terminal runs of a rule body as plain array reads, and
//! usage-weighted label statistics computed in a single pass over the
//! grammar.

use std::collections::HashMap;
use std::sync::Arc;

use sltgrammar::{FxHashMap, Grammar, NodeKind, NtId, TermId};

/// Label kind of one preorder position of a rule body, with the terminal's
/// rank and null-ness denormalized so the hot loops never consult the symbol
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NavKind {
    /// Terminal node.
    Term {
        /// The terminal symbol.
        term: TermId,
        /// Its rank (number of children).
        rank: u32,
        /// Whether it is the null (`#`) symbol.
        null: bool,
    },
    /// Reference to another rule.
    Nt(NtId),
    /// Formal parameter `y_{j+1}`.
    Param(u32),
}

/// Outcome of resolving a position down to its first derived terminal while
/// staying inside one rule: either a terminal is reached, or resolution
/// escapes through the rule's `j`-th parameter and continues in the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FirstTerm {
    /// Resolution reaches this terminal without leaving the rule. The null
    /// flag is denormalized so the document view's peek never consults the
    /// symbol table.
    Reached {
        /// The terminal reached.
        term: TermId,
        /// Whether it is the null (`#`) symbol.
        null: bool,
    },
    /// Resolution escapes through parameter `y_{j+1}`.
    Falls(u32),
}

/// One parameter hole of a rule body in the document order of `val(A)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hole {
    /// Parameter index (0-based).
    pub(crate) param: u32,
    /// Preorder position of the parameter leaf in the rule body.
    pub(crate) pos: u32,
    /// Number of the rule's *own* elements (non-null terminals, including
    /// those contributed by callee bodies) preceding the hole in `val(A)`.
    pub(crate) elems_before: u128,
}

/// Precomputed navigation data of one rule body (see [`NavTables`]).
#[derive(Debug, Clone)]
pub(crate) struct RuleNav {
    /// Label kinds by preorder position.
    pub(crate) kinds: Vec<NavKind>,
    /// Subtree sizes (in body nodes) by preorder position.
    pub(crate) size: Vec<u32>,
    /// Parent preorder position (`u32::MAX` for the root).
    parent: Vec<u32>,
    /// Index among the parent's children.
    child_index: Vec<u32>,
    /// Resolved first terminal by preorder position.
    first: Vec<FirstTerm>,
    /// Preorder position of parameter `y_{j+1}`, indexed by `j`.
    param_pos: Vec<u32>,
    /// Parameter holes in document order of `val(A)`.
    pub(crate) holes: Vec<Hole>,
    /// Parameter holes sorted by body position (`(pos, param)`).
    pub(crate) params_by_pos: Vec<(u32, u32)>,
    /// Element count of the expansion of each position's subtree, with
    /// parameters contributing zero.
    pub(crate) elems_at: Vec<u128>,
    /// Element count of `val(A)` excluding parameter contents
    /// (`elems_at[root]`).
    pub(crate) own_elems: u128,
    /// Derived-node count (nulls included) of the expansion of each
    /// position's subtree, with parameters contributing zero.
    pub(crate) derived_at: Vec<u128>,
    /// Derived-node count of `val(A)` excluding parameter contents
    /// (`derived_at[root]`).
    pub(crate) own_derived: u128,
}

impl RuleNav {
    /// Preorder position of the `j`-th child of the node at position `p`.
    #[inline]
    pub(crate) fn child_pos(&self, p: u32, j: u32) -> u32 {
        let mut q = p + 1;
        for _ in 0..j {
            q += self.size[q as usize];
        }
        q
    }

    /// Number of preorder positions of the body.
    #[inline]
    fn len(&self) -> u32 {
        self.kinds.len() as u32
    }

    fn build(g: &Grammar, nt: NtId, done: &[Option<RuleNav>]) -> RuleNav {
        let rhs = &g.rule(nt).rhs;
        let rank = g.rule(nt).rank;

        // Flatten the body into preorder arrays with parent/child-index links.
        let mut kinds = Vec::new();
        let mut parent = Vec::new();
        let mut child_index = Vec::new();
        let mut param_pos = vec![u32::MAX; rank];
        let mut stack = vec![(rhs.root(), u32::MAX, 0u32)];
        while let Some((node, par, ci)) = stack.pop() {
            let pos = kinds.len() as u32;
            let kind = match rhs.kind(node) {
                NodeKind::Term(t) => NavKind::Term {
                    term: t,
                    // The node's actual child count: equal to the symbol rank
                    // on validated grammars, and the structurally correct
                    // choice for navigation either way (e.g. string grammars
                    // whose renamed labels were interned at rank 2).
                    rank: rhs.children(node).len() as u32,
                    null: g.symbols.is_null(t),
                },
                NodeKind::Nt(c) => NavKind::Nt(c),
                NodeKind::Param(j) => {
                    param_pos[j as usize] = pos;
                    NavKind::Param(j)
                }
            };
            kinds.push(kind);
            parent.push(par);
            child_index.push(ci);
            let children = rhs.children(node);
            for (i, &c) in children.iter().enumerate().rev() {
                stack.push((c, pos, i as u32));
            }
        }
        let n = kinds.len();

        // Subtree sizes: every node adds itself to its parent (children have
        // larger preorder positions than their parent, so one reverse sweep
        // suffices).
        let mut size = vec![1u32; n];
        for p in (1..n).rev() {
            size[parent[p] as usize] += size[p];
        }

        // Element and derived-node counts of each position's expansion
        // (parameters = 0, callees contribute their own counts).
        let mut elems_at = vec![0u128; n];
        let mut derived_at = vec![0u128; n];
        for p in (0..n).rev() {
            let (own_e, own_d): (u128, u128) = match kinds[p] {
                NavKind::Term { null, .. } => (u128::from(!null), 1),
                NavKind::Nt(c) => {
                    let callee = done[c.index()].as_ref().expect("callees built first");
                    (callee.own_elems, callee.own_derived)
                }
                NavKind::Param(_) => (0, 0),
            };
            elems_at[p] = elems_at[p].saturating_add(own_e);
            derived_at[p] = derived_at[p].saturating_add(own_d);
            if p > 0 {
                let par = parent[p] as usize;
                elems_at[par] = elems_at[par].saturating_add(elems_at[p]);
                derived_at[par] = derived_at[par].saturating_add(derived_at[p]);
            }
        }
        let own_elems = elems_at[0];
        let own_derived = derived_at[0];

        let nav = RuleNav {
            kinds,
            size,
            parent,
            child_index,
            first: Vec::new(),
            param_pos,
            holes: Vec::new(),
            params_by_pos: Vec::new(),
            elems_at,
            own_elems,
            derived_at,
            own_derived,
        };

        // Resolved first terminal: reverse preorder, so children (and the
        // argument subtrees a callee may fall into) are resolved first.
        let mut first = vec![FirstTerm::Falls(0); n];
        for p in (0..n).rev() {
            first[p] = match nav.kinds[p] {
                NavKind::Term { term, null, .. } => FirstTerm::Reached { term, null },
                NavKind::Param(j) => FirstTerm::Falls(j),
                NavKind::Nt(c) => {
                    match done[c.index()].as_ref().expect("callees built first").first[0] {
                        reached @ FirstTerm::Reached { .. } => reached,
                        FirstTerm::Falls(j) => first[nav.child_pos(p as u32, j) as usize],
                    }
                }
            };
        }

        // Parameter holes in the document order of val(A): walk the body in
        // expansion order, interleaving callee bodies with their own holes.
        enum Walk {
            Pos(u32),
            Add(u128),
        }
        let mut holes = Vec::with_capacity(rank);
        let mut elems: u128 = 0;
        let mut jobs = vec![Walk::Pos(0)];
        while let Some(job) = jobs.pop() {
            match job {
                Walk::Add(d) => elems = elems.saturating_add(d),
                Walk::Pos(p) => match nav.kinds[p as usize] {
                    NavKind::Term { null: true, .. } => {}
                    NavKind::Term { rank, .. } => {
                        elems = elems.saturating_add(1);
                        let mut child = p + 1;
                        let mut children = Vec::with_capacity(rank as usize);
                        for _ in 0..rank {
                            children.push(child);
                            child += nav.size[child as usize];
                        }
                        for &c in children.iter().rev() {
                            jobs.push(Walk::Pos(c));
                        }
                    }
                    NavKind::Param(j) => holes.push(Hole {
                        param: j,
                        pos: p,
                        elems_before: elems,
                    }),
                    NavKind::Nt(c) => {
                        let callee = done[c.index()].as_ref().expect("callees built first");
                        let mut seq = Vec::with_capacity(2 * callee.holes.len() + 1);
                        let mut prev = 0u128;
                        for h in &callee.holes {
                            seq.push(Walk::Add(h.elems_before.saturating_sub(prev)));
                            prev = h.elems_before;
                            seq.push(Walk::Pos(nav.child_pos(p, h.param)));
                        }
                        seq.push(Walk::Add(callee.own_elems.saturating_sub(prev)));
                        for s in seq.into_iter().rev() {
                            jobs.push(s);
                        }
                    }
                },
            }
        }
        debug_assert_eq!(elems, own_elems, "hole layout walk must count every own element");
        let mut params_by_pos: Vec<(u32, u32)> =
            holes.iter().map(|h| (h.pos, h.param)).collect();
        params_by_pos.sort_unstable();

        RuleNav {
            first,
            holes,
            params_by_pos,
            ..nav
        }
    }
}

/// Per-rule navigation tables of one grammar snapshot (see the module docs).
///
/// Build with [`NavTables::build`]; revalidate with [`NavTables::is_current`].
/// The tables borrow nothing from the grammar, so they can be shared behind
/// an [`Arc`] and outlive intermediate mutations — holders are responsible
/// for the revalidate-and-rebuild dance, which
/// [`crate::session::CompressedDom`] implements.
#[derive(Debug, Clone)]
pub struct NavTables {
    rules: Vec<Option<RuleNav>>,
    /// `(rule, rhs version)` snapshot for `is_current`, in id order.
    versions: Vec<(NtId, u64)>,
    start: NtId,
}

impl NavTables {
    /// Builds the tables for the current grammar snapshot in O(grammar).
    pub fn build(g: &Grammar) -> Self {
        let order = g
            .anti_sl_order()
            .expect("navigation requires a straight-line grammar");
        let max_index = order.iter().map(|nt| nt.index()).max().unwrap_or(0);
        let mut rules: Vec<Option<RuleNav>> = vec![None; max_index + 1];
        for &nt in &order {
            let nav = RuleNav::build(g, nt, &rules);
            rules[nt.index()] = Some(nav);
        }
        let versions = g
            .nonterminals()
            .into_iter()
            .map(|nt| (nt, g.rule(nt).rhs.version()))
            .collect();
        NavTables {
            rules,
            versions,
            start: g.start(),
        }
    }

    /// Whether the tables still describe `g`: same start rule, same live rule
    /// set, and no rule body mutated since the snapshot (checked through the
    /// [`sltgrammar::RhsTree::version`] counters in O(rules)).
    pub fn is_current(&self, g: &Grammar) -> bool {
        if self.start != g.start() {
            return false;
        }
        let live = g.nonterminals();
        live.len() == self.versions.len()
            && live
                .iter()
                .zip(self.versions.iter())
                .all(|(&nt, &(snap_nt, version))| {
                    nt == snap_nt && g.rule(nt).rhs.version() == version
                })
    }

    /// The start rule the tables were built for.
    pub fn start(&self) -> NtId {
        self.start
    }

    #[inline]
    pub(crate) fn rule(&self, nt: NtId) -> &RuleNav {
        self.rules[nt.index()]
            .as_ref()
            .expect("tables cover every live rule")
    }
}

/// One stack frame of a [`Cursor`]: a rule and the current preorder position
/// inside its body. For every frame except the innermost, `pos` is the
/// nonterminal reference whose callee is the frame above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frame {
    nt: NtId,
    pos: u32,
}

/// Full weight of the expansion of position `pos` in `frames[frame_idx]`,
/// *including* the contents plugged into any parameter holes inside that
/// subtree. `weights[i]` holds, for frame `i`, the full weight of the
/// argument subtree bound to each of its rule's parameters (empty for the
/// start frame). `elements_only` selects the element counts (`elems_at`,
/// nulls excluded) or the derived-node counts (`derived_at`).
///
/// The parameter holes inside `[pos, pos + size)` are found by binary search
/// on the rule's position-sorted hole layout, so one call costs
/// O(log(params) + params-inside), not a subtree walk.
fn pos_weight(
    tables: &NavTables,
    frames: &[Frame],
    weights: &[Vec<u128>],
    frame_idx: usize,
    pos: u32,
    elements_only: bool,
) -> u128 {
    let nav = tables.rule(frames[frame_idx].nt);
    let mut w = if elements_only {
        nav.elems_at[pos as usize]
    } else {
        nav.derived_at[pos as usize]
    };
    let end = pos + nav.size[pos as usize];
    let lo = nav.params_by_pos.partition_point(|&(p, _)| p < pos);
    let hi = nav.params_by_pos.partition_point(|&(p, _)| p < end);
    for &(_, j) in &nav.params_by_pos[lo..hi] {
        w = w.saturating_add(weights[frame_idx][j as usize]);
    }
    w
}

/// A read-only position in the derived binary tree `val(G)`.
///
/// The cursor always rests on a *terminal* node of the derived tree; moving
/// through nonterminal references and parameters is handled internally. All
/// steps resolve through shared [`NavTables`]; `down`/`up` cost O(1) per rule
/// frame crossed and the document view peeks at child labels without moving
/// (no stack copies on the hot path).
#[derive(Debug, Clone)]
pub struct Cursor<'g> {
    grammar: &'g Grammar,
    tables: Arc<NavTables>,
    stack: Vec<Frame>,
    /// Scratch buffer for the rare restore path of [`Cursor::doc_parent`].
    saved: Vec<Frame>,
}

impl<'g> Cursor<'g> {
    /// Creates a cursor positioned at the root of the derived tree, building
    /// private [`NavTables`] (O(grammar)). Prefer [`Cursor::with_tables`]
    /// when several cursors or repeated traversals share one snapshot.
    pub fn new(grammar: &'g Grammar) -> Self {
        Cursor::with_tables(grammar, Arc::new(NavTables::build(grammar)))
    }

    /// Creates a cursor at the derived root sharing prebuilt tables. The
    /// tables must be current for `grammar` (debug-asserted).
    pub fn with_tables(grammar: &'g Grammar, tables: Arc<NavTables>) -> Self {
        debug_assert!(
            tables.is_current(grammar),
            "NavTables are stale for this grammar snapshot"
        );
        let mut cursor = Cursor {
            grammar,
            stack: vec![Frame {
                nt: tables.start(),
                pos: 0,
            }],
            tables,
            saved: Vec::new(),
        };
        cursor.resolve();
        cursor
    }

    /// The grammar this cursor reads.
    pub fn grammar(&self) -> &'g Grammar {
        self.grammar
    }

    /// The shared navigation tables backing this cursor.
    pub fn tables(&self) -> &Arc<NavTables> {
        &self.tables
    }

    #[inline]
    fn nav(&self, nt: NtId) -> &RuleNav {
        self.tables.rule(nt)
    }

    #[inline]
    fn top_kind(&self) -> NavKind {
        let top = self.stack.last().expect("cursor stack is never empty");
        self.nav(top.nt).kinds[top.pos as usize]
    }

    /// Moves the innermost position through nonterminal references and
    /// parameters until it rests on a terminal node.
    fn resolve(&mut self) {
        loop {
            let top = *self.stack.last().expect("cursor stack is never empty");
            match self.nav(top.nt).kinds[top.pos as usize] {
                NavKind::Term { .. } => return,
                NavKind::Nt(callee) => {
                    self.stack.push(Frame { nt: callee, pos: 0 });
                }
                NavKind::Param(j) => {
                    // Continue in the j-th argument of the call site one frame below.
                    self.stack.pop();
                    let caller = self.stack.last_mut().expect("parameters only occur in callees");
                    caller.pos = self.tables.rule(caller.nt).child_pos(caller.pos, j);
                }
            }
        }
    }

    /// Terminal symbol at the current position.
    pub fn term(&self) -> TermId {
        match self.top_kind() {
            NavKind::Term { term, .. } => term,
            _ => unreachable!("cursor always rests on a terminal"),
        }
    }

    /// Label at the current position.
    pub fn label(&self) -> &'g str {
        self.grammar.symbols.name(self.term())
    }

    /// Whether the current node is the null (`#` / `⊥`) leaf.
    pub fn is_null(&self) -> bool {
        matches!(self.top_kind(), NavKind::Term { null: true, .. })
    }

    /// Rank (number of children in the derived tree) of the current node.
    pub fn rank(&self) -> usize {
        match self.top_kind() {
            NavKind::Term { rank, .. } => rank as usize,
            _ => unreachable!("cursor always rests on a terminal"),
        }
    }

    /// Whether the terminal the cursor would land on after `down(i)` is the
    /// null leaf, resolved read-only through the tables (no movement, no
    /// allocation, no symbol-table consult). The caller must ensure
    /// `i < self.rank()`.
    fn peek_child_is_null(&self, i: usize) -> bool {
        let top = *self.stack.last().expect("cursor stack is never empty");
        let mut nt = top.nt;
        let mut pos = self.nav(nt).child_pos(top.pos, i as u32);
        let mut frame = self.stack.len() - 1;
        loop {
            match self.nav(nt).first[pos as usize] {
                FirstTerm::Reached { null, .. } => return null,
                FirstTerm::Falls(j) => {
                    // Resolution escapes the current rule through parameter j;
                    // continue in the caller's argument subtree.
                    frame -= 1;
                    let caller = self.stack[frame];
                    nt = caller.nt;
                    pos = self.nav(nt).child_pos(caller.pos, j);
                }
            }
        }
    }

    /// Descends to the `i`-th child of the current node. Returns `false` (and
    /// stays put) if the current node has fewer than `i + 1` children.
    pub fn down(&mut self, i: usize) -> bool {
        if i >= self.rank() {
            return false;
        }
        let top = self.stack.last_mut().expect("cursor stack is never empty");
        top.pos = self.tables.rule(top.nt).child_pos(top.pos, i as u32);
        self.resolve();
        true
    }

    /// Ascends to the parent of the current node in the derived tree. Returns
    /// the child index the cursor came from, or `None` at the root.
    pub fn up(&mut self) -> Option<usize> {
        loop {
            let top = *self.stack.last().expect("cursor stack is never empty");
            let nav = self.nav(top.nt);
            if top.pos == 0 {
                // At the root of this rule's body.
                if self.stack.len() == 1 {
                    return None;
                }
                self.stack.pop();
                // The caller frame's position is the call site; continue there.
                continue;
            }
            let parent = nav.parent[top.pos as usize];
            let idx = nav.child_index[top.pos as usize] as usize;
            match nav.kinds[parent as usize] {
                NavKind::Term { .. } => {
                    self.stack.last_mut().expect("non-empty").pos = parent;
                    return Some(idx);
                }
                NavKind::Nt(callee) => {
                    // The current node is the idx-th argument of a call; its
                    // derived parent is the parent of parameter y_idx inside
                    // the callee. Position the caller frame at the call node
                    // and continue searching from the parameter leaf.
                    self.stack.last_mut().expect("non-empty").pos = parent;
                    let param = self.tables.rule(callee).param_pos[idx];
                    self.stack.push(Frame {
                        nt: callee,
                        pos: param,
                    });
                }
                NavKind::Param(_) => {
                    unreachable!("parameters are leaves and cannot be parents")
                }
            }
        }
    }

    /// Whether the cursor is at the root of the derived tree.
    pub fn at_root(&self) -> bool {
        let mut probe = self.clone();
        probe.up().is_none()
    }

    /// Depth of the rule-frame stack — a measure of how deeply the current
    /// position is nested in the grammar (not the derived-tree depth).
    pub fn frame_depth(&self) -> usize {
        self.stack.len()
    }

    // ----- positional addressing through the precomputed counts -----

    /// Jumps to the node with 0-based preorder index `index` of the derived
    /// binary tree (nulls included — the same addressing update targets and
    /// `label_at` use). Returns `false` and stays put when the index is out
    /// of range.
    ///
    /// The jump is a single root-to-node descent steered by the precomputed
    /// per-position subtree counts — no path isolation, no grammar mutation,
    /// no expansion of skipped siblings. Each step resolves the weight of a
    /// candidate subtree in O(log rank + holes-inside) via the rule's hole
    /// layout, so a jump costs O(depth · rank) table lookups in total.
    pub fn node_at_preorder(&mut self, index: u128) -> bool {
        self.jump(index, false)
    }

    /// Jumps to the `index`-th *element* (non-null node) in document preorder
    /// — the addressing [`crate::query::QueryMatches::positions`] reports, so
    /// query hits can be turned into cursors directly. Returns `false` and
    /// stays put when the index is out of range.
    pub fn nth_element(&mut self, index: u128) -> bool {
        self.jump(index, true)
    }

    fn jump(&mut self, index: u128, elements_only: bool) -> bool {
        let tables = self.tables.clone();
        let start = tables.start();
        let total = if elements_only {
            tables.rule(start).own_elems
        } else {
            tables.rule(start).own_derived
        };
        if index >= total {
            return false;
        }
        let mut frames = vec![Frame { nt: start, pos: 0 }];
        let mut weights: Vec<Vec<u128>> = vec![Vec::new()];
        let mut remaining = index;
        loop {
            let top = *frames.last().expect("jump stack is never empty");
            let nav = tables.rule(top.nt);
            match nav.kinds[top.pos as usize] {
                NavKind::Term { rank, null, .. } => {
                    let counts = !elements_only || !null;
                    if counts {
                        if remaining == 0 {
                            self.stack = frames;
                            return true;
                        }
                        remaining -= 1;
                    }
                    // Steer into the child subtree containing the target.
                    let frame_idx = frames.len() - 1;
                    let mut child = top.pos + 1;
                    let mut descended = false;
                    for _ in 0..rank {
                        let w =
                            pos_weight(&tables, &frames, &weights, frame_idx, child, elements_only);
                        if remaining < w {
                            frames[frame_idx].pos = child;
                            descended = true;
                            break;
                        }
                        remaining -= w;
                        child += nav.size[child as usize];
                    }
                    if !descended {
                        // Unreachable for in-range indices: the root weight
                        // bounds the index and every weight is exact.
                        debug_assert!(false, "weighted descent lost the target");
                        return false;
                    }
                }
                NavKind::Nt(callee) => {
                    // The target is inside this call's expansion (its own
                    // production or a plugged argument — the descent inside
                    // the callee distinguishes them through the argument
                    // weights computed here, in the caller's context).
                    let frame_idx = frames.len() - 1;
                    let rank = tables.rule(callee).param_pos.len();
                    let mut args = Vec::with_capacity(rank);
                    let mut child = top.pos + 1;
                    for _ in 0..rank {
                        args.push(pos_weight(
                            &tables,
                            &frames,
                            &weights,
                            frame_idx,
                            child,
                            elements_only,
                        ));
                        child += nav.size[child as usize];
                    }
                    frames.push(Frame { nt: callee, pos: 0 });
                    weights.push(args);
                }
                NavKind::Param(j) => {
                    // The target fell through this hole: continue in the
                    // caller's argument subtree (same transition as resolve).
                    frames.pop();
                    weights.pop();
                    let caller = frames.last_mut().expect("parameters only occur in callees");
                    caller.pos = tables.rule(caller.nt).child_pos(caller.pos, j);
                }
            }
        }
    }

    /// Number of nodes (nulls included) of the derived subtree rooted at the
    /// current node, read off the precomputed per-position subtree counts —
    /// no traversal of the subtree. Costs O(frame depth · rank) table
    /// lookups: the weights plugged into each live frame's parameters are
    /// re-derived from the stack, never from the document.
    pub fn subtree_size(&self) -> u128 {
        let mut weights: Vec<Vec<u128>> = Vec::with_capacity(self.stack.len());
        weights.push(Vec::new());
        for i in 1..self.stack.len() {
            let caller = self.stack[i - 1];
            let nav = self.nav(caller.nt);
            let rank = self.nav(self.stack[i].nt).param_pos.len();
            let mut args = Vec::with_capacity(rank);
            let mut child = caller.pos + 1;
            for _ in 0..rank {
                args.push(pos_weight(&self.tables, &self.stack, &weights, i - 1, child, false));
                child += nav.size[child as usize];
            }
            weights.push(args);
        }
        let top = self.stack.len() - 1;
        pos_weight(
            &self.tables,
            &self.stack,
            &weights,
            top,
            self.stack[top].pos,
            false,
        )
    }

    // ----- document (element) view over the binary encoding -----

    /// Moves to the first child *element* of the current element. Returns
    /// `false` and stays put if there is none.
    ///
    /// The null check peeks through the tables; nothing moves (and nothing is
    /// copied) when there is no child element.
    pub fn doc_first_child(&mut self) -> bool {
        if self.rank() == 0 || self.peek_child_is_null(0) {
            return false;
        }
        self.down(0);
        true
    }

    /// Moves to the next sibling *element* of the current element. Returns
    /// `false` and stays put if there is none.
    pub fn doc_next_sibling(&mut self) -> bool {
        if self.rank() < 2 || self.peek_child_is_null(1) {
            return false;
        }
        self.down(1);
        true
    }

    /// Moves to the parent *element* of the current element. Returns `false`
    /// and stays put at the document root.
    pub fn doc_parent(&mut self) -> bool {
        // Only the failure path (already at the document root) needs to
        // restore; reuse one scratch buffer instead of cloning per call.
        self.saved.clear();
        self.saved.extend_from_slice(&self.stack);
        loop {
            match self.up() {
                Some(0) => return true,
                Some(_) => continue,
                None => {
                    std::mem::swap(&mut self.stack, &mut self.saved);
                    return false;
                }
            }
        }
    }

    /// Moves to the previous sibling *element* of the current element.
    /// Returns `false` and stays put if the current element is its parent's
    /// first child (or the document root).
    ///
    /// In the first-child/next-sibling encoding an element's previous sibling
    /// *is* its binary parent whenever the element sits in next-sibling
    /// position (child index 1) — so this is one [`Cursor::up`] step through
    /// the parent-side tables (per-position parent and child-index arrays of
    /// [`NavTables`]), the mirror of [`Cursor::doc_next_sibling`]'s single
    /// `down(1)`.
    pub fn doc_prev_sibling(&mut self) -> bool {
        self.saved.clear();
        self.saved.extend_from_slice(&self.stack);
        match self.up() {
            Some(1) => true,
            // Child index 0 (we were a first child: `up` moved to the doc
            // parent) or the root — restore and report no previous sibling.
            _ => {
                std::mem::swap(&mut self.stack, &mut self.saved);
                false
            }
        }
    }
}

/// One frame of the [`PreorderLabels`] expansion machine: a slice
/// `[cur, end)` of one rule body to emit, plus the frame/call-site pair that
/// supplies the rule's arguments when a parameter is reached.
#[derive(Debug, Clone, Copy)]
struct PlFrame {
    nt: NtId,
    cur: u32,
    end: u32,
    /// Index (into the live stack) of the frame whose rule contains this
    /// rule's call site; parameters continue in that frame's argument
    /// subtrees. Unused for the start frame.
    ctx_frame: u32,
    /// Preorder position of the call site inside `ctx_frame`'s rule.
    call_pos: u32,
}

/// Streaming preorder iterator over the terminal labels of `val(G)`.
///
/// The iterator visits every node of the derived tree exactly once without
/// materializing it. It runs directly on the flattened preorder arrays of
/// [`NavTables`]: consecutive terminals of a rule body are emitted as plain
/// array reads (whole terminal runs cost one bounds check per node), a
/// nonterminal reference pushes the callee body and skips the call subtree
/// via the precomputed sizes, and a parameter continues in the caller's
/// argument slice. One frame buffer is reused across all `next()` calls —
/// no per-node re-resolution and no per-node allocation. Memory use is
/// bounded by the derivation depth.
pub struct PreorderLabels<'g> {
    grammar: &'g Grammar,
    tables: Arc<NavTables>,
    stack: Vec<PlFrame>,
}

impl<'g> PreorderLabels<'g> {
    /// Creates the iterator positioned before the root, building private
    /// tables. Prefer [`PreorderLabels::with_tables`] for repeated
    /// traversals of one snapshot.
    pub fn new(grammar: &'g Grammar) -> Self {
        PreorderLabels::with_tables(grammar, Arc::new(NavTables::build(grammar)))
    }

    /// Creates the iterator sharing prebuilt tables (must be current for
    /// `grammar`, debug-asserted).
    pub fn with_tables(grammar: &'g Grammar, tables: Arc<NavTables>) -> Self {
        debug_assert!(
            tables.is_current(grammar),
            "NavTables are stale for this grammar snapshot"
        );
        let start = tables.start();
        let end = tables.rule(start).len();
        PreorderLabels {
            grammar,
            stack: vec![PlFrame {
                nt: start,
                cur: 0,
                end,
                ctx_frame: 0,
                call_pos: 0,
            }],
            tables,
        }
    }

    /// The grammar this iterator reads.
    pub fn grammar(&self) -> &'g Grammar {
        self.grammar
    }
}

impl<'g> Iterator for PreorderLabels<'g> {
    type Item = TermId;

    fn next(&mut self) -> Option<TermId> {
        loop {
            let top_idx = self.stack.len().checked_sub(1)?;
            let frame = self.stack[top_idx];
            if frame.cur == frame.end {
                self.stack.pop();
                if self.stack.is_empty() {
                    return None;
                }
                continue;
            }
            let nav = self.tables.rule(frame.nt);
            match nav.kinds[frame.cur as usize] {
                NavKind::Term { term, .. } => {
                    self.stack[top_idx].cur += 1;
                    return Some(term);
                }
                NavKind::Nt(callee) => {
                    // Resume after the whole call subtree, then expand the callee.
                    self.stack[top_idx].cur += nav.size[frame.cur as usize];
                    let end = self.tables.rule(callee).len();
                    self.stack.push(PlFrame {
                        nt: callee,
                        cur: 0,
                        end,
                        ctx_frame: top_idx as u32,
                        call_pos: frame.cur,
                    });
                }
                NavKind::Param(j) => {
                    // Resume after the parameter leaf, then emit the caller's
                    // argument slice under the caller's own parameter context.
                    self.stack[top_idx].cur += 1;
                    let ctx = self.stack[frame.ctx_frame as usize];
                    let caller_nav = self.tables.rule(ctx.nt);
                    let arg = caller_nav.child_pos(frame.call_pos, j);
                    self.stack.push(PlFrame {
                        nt: ctx.nt,
                        cur: arg,
                        end: arg + caller_nav.size[arg as usize],
                        ctx_frame: ctx.ctx_frame,
                        call_pos: ctx.call_pos,
                    });
                }
            }
        }
    }
}

/// Usage-weighted number of occurrences of every terminal in `val(G)`,
/// keyed by [`TermId`], computed in one pass over the grammar (no traversal
/// of the derived tree, no string allocation).
pub fn term_counts(g: &Grammar) -> FxHashMap<TermId, u128> {
    let usage = g.usage();
    let mut counts: FxHashMap<TermId, u128> = FxHashMap::default();
    for nt in g.nonterminals() {
        let weight = usage.get(&nt).copied().unwrap_or(0) as u128;
        if weight == 0 {
            continue;
        }
        let rhs = &g.rule(nt).rhs;
        for node in rhs.preorder() {
            if let NodeKind::Term(t) = rhs.kind(node) {
                *counts.entry(t).or_insert(0) += weight;
            }
        }
    }
    counts
}

/// Usage-weighted number of occurrences of every terminal label in `val(G)`.
/// String-keyed convenience wrapper around [`term_counts`].
pub fn label_counts(g: &Grammar) -> HashMap<String, u128> {
    term_counts(g)
        .into_iter()
        .map(|(t, c)| (g.symbols.name(t).to_string(), c))
        .collect()
}

/// Number of *element* nodes (non-null terminals) of the derived tree,
/// computed without decompression.
pub fn element_count(g: &Grammar) -> u128 {
    term_counts(g)
        .into_iter()
        .filter(|&(t, _)| !g.symbols.is_null(t))
        .map(|(_, c)| c)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sltgrammar::derive::val;
    use sltgrammar::fingerprint::derived_size;
    use sltgrammar::text::parse_grammar;
    use treerepair::TreeRePair;
    use xmltree::parse::parse_xml;

    fn paper_grammar() -> Grammar {
        parse_grammar("S -> f(A(B,B),#)\nB -> A(#,#)\nA -> a(#, a(y1, y2))").unwrap()
    }

    fn compressed(doc: &str) -> (Grammar, xmltree::XmlTree) {
        let xml = parse_xml(doc).unwrap();
        let (g, _) = TreeRePair::default().compress_xml(&xml);
        (g, xml)
    }

    #[test]
    fn preorder_labels_match_the_materialized_tree() {
        let g = paper_grammar();
        let tree = val(&g).unwrap();
        let expected: Vec<String> = tree
            .preorder()
            .iter()
            .map(|&n| match tree.kind(n) {
                NodeKind::Term(t) => g.symbols.name(t).to_string(),
                _ => unreachable!(),
            })
            .collect();
        let got: Vec<String> = PreorderLabels::new(&g)
            .map(|t| g.symbols.name(t).to_string())
            .collect();
        assert_eq!(got, expected);
        assert_eq!(got.len() as u128, derived_size(&g));
    }

    #[test]
    fn cursor_down_up_are_inverse_everywhere() {
        let (g, _) = compressed(
            "<lib><book><ch><p/><p/></ch><ch/></book><book><ch><p/><p/></ch><ch/></book></lib>",
        );
        // Walk the whole derived tree; at every node check that down(i) then up()
        // returns to the same label and child index.
        let mut cursor = Cursor::new(&g);
        let mut visited = 0u128;
        let mut done = false;
        while !done {
            visited += 1;
            let label_before = cursor.label().to_string();
            for i in 0..cursor.rank() {
                assert!(cursor.down(i));
                let idx = cursor.up().expect("child has a parent");
                assert_eq!(idx, i);
                assert_eq!(cursor.label(), label_before);
            }
            // Advance in preorder.
            if cursor.rank() > 0 {
                cursor.down(0);
            } else {
                loop {
                    match cursor.up() {
                        None => {
                            done = true;
                            break;
                        }
                        Some(idx) => {
                            if idx + 1 < cursor.rank() {
                                cursor.down(idx + 1);
                                break;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(visited, derived_size(&g));
    }

    #[test]
    fn document_navigation_matches_the_original_document() {
        let doc = "<lib><book><title/><ch/><ch/></book><mag><title/></mag><book/></lib>";
        let (g, xml) = compressed(doc);
        let mut cursor = Cursor::new(&g);
        assert_eq!(cursor.label(), "lib");
        assert!(!cursor.doc_parent(), "document root has no parent");

        // First child chain: lib -> book -> title.
        assert!(cursor.doc_first_child());
        assert_eq!(cursor.label(), "book");
        assert!(cursor.doc_first_child());
        assert_eq!(cursor.label(), "title");
        assert!(!cursor.doc_first_child(), "title is a leaf");

        // Sibling chain of title: ch, ch.
        assert!(cursor.doc_next_sibling());
        assert_eq!(cursor.label(), "ch");
        assert!(cursor.doc_next_sibling());
        assert_eq!(cursor.label(), "ch");
        assert!(!cursor.doc_next_sibling());

        // Parent of the last ch is book; its siblings are mag and book.
        assert!(cursor.doc_parent());
        assert_eq!(cursor.label(), "book");
        assert!(cursor.doc_next_sibling());
        assert_eq!(cursor.label(), "mag");
        assert!(cursor.doc_next_sibling());
        assert_eq!(cursor.label(), "book");
        assert!(!cursor.doc_next_sibling());
        assert!(cursor.doc_parent());
        assert_eq!(cursor.label(), "lib");

        let _ = xml;
    }

    #[test]
    fn doc_prev_sibling_mirrors_doc_next_sibling() {
        let doc = "<lib><book><title/><ch/><ch/></book><mag><title/></mag><book/></lib>";
        let (g, _) = compressed(doc);
        let mut cursor = Cursor::new(&g);
        assert!(!cursor.doc_prev_sibling(), "the document root has no siblings");
        assert_eq!(cursor.label(), "lib");

        // Walk to the last sibling of the lib children, then walk back.
        assert!(cursor.doc_first_child());
        assert!(cursor.doc_next_sibling());
        assert!(cursor.doc_next_sibling());
        assert_eq!(cursor.label(), "book");
        assert!(cursor.doc_prev_sibling());
        assert_eq!(cursor.label(), "mag");
        assert!(cursor.doc_prev_sibling());
        assert_eq!(cursor.label(), "book");
        assert!(
            !cursor.doc_prev_sibling(),
            "a first child has no previous sibling"
        );
        assert_eq!(cursor.label(), "book", "failed moves stay put");

        // prev/next are inverses at every inner sibling position.
        assert!(cursor.doc_first_child());
        assert!(cursor.doc_next_sibling());
        assert_eq!(cursor.label(), "ch");
        let before = cursor.subtree_size();
        assert!(cursor.doc_prev_sibling());
        assert_eq!(cursor.label(), "title");
        assert!(cursor.doc_next_sibling());
        assert_eq!(cursor.label(), "ch");
        assert_eq!(cursor.subtree_size(), before, "round trip lands on the same node");
    }

    #[test]
    fn document_navigation_covers_every_element() {
        // DFS over the document view must visit exactly the elements of the XML.
        let doc = "<a><b><c/><d><e/></d></b><f/><g><h/><i/><j/></g></a>";
        let (g, xml) = compressed(doc);
        let mut cursor = Cursor::new(&g);
        let mut labels = Vec::new();
        // Iterative DFS using doc_first_child / doc_next_sibling / doc_parent.
        'outer: loop {
            labels.push(cursor.label().to_string());
            if cursor.doc_first_child() {
                continue;
            }
            loop {
                if cursor.doc_next_sibling() {
                    break;
                }
                if !cursor.doc_parent() {
                    break 'outer;
                }
            }
        }
        let expected: Vec<String> = xml
            .preorder()
            .iter()
            .map(|&n| xml.label(n).to_string())
            .collect();
        assert_eq!(labels, expected);
    }

    #[test]
    fn navigation_works_on_exponentially_compressed_grammars() {
        // A chain of doubling rules deriving a monadic tree of 2^20 a-nodes plus
        // a null leaf: far too large to materialize, trivial to navigate.
        let mut text = String::from("S -> A1(A1(#))\n");
        for i in 1..=19 {
            text.push_str(&format!("A{i} -> A{}(A{}(y1))\n", i + 1, i + 1));
        }
        text.push_str("A20 -> a(y1)");
        let g = parse_grammar(&text).unwrap();
        assert_eq!(derived_size(&g), (1u128 << 20) + 1);

        let mut cursor = Cursor::new(&g);
        assert_eq!(cursor.label(), "a");
        // Descend 1000 levels and come back.
        for _ in 0..1000 {
            assert!(cursor.down(0));
            assert_eq!(cursor.label(), "a");
        }
        for _ in 0..1000 {
            assert_eq!(cursor.up(), Some(0));
        }
        assert!(cursor.up().is_none());
        // The frame stack stays logarithmic in the derived size.
        assert!(cursor.frame_depth() <= 25);

        // Label statistics without traversal.
        let counts = label_counts(&g);
        assert_eq!(counts["a"], 1u128 << 20);
        assert_eq!(counts["#"], 1);
        assert_eq!(element_count(&g), 1u128 << 20);
    }

    #[test]
    fn label_counts_match_traversal_on_small_documents() {
        let (g, xml) = compressed(
            "<db><r><k/><v/></r><r><k/><v/></r><r><k/><v/></r><r><k/><v/></r><x/></db>",
        );
        let counts = label_counts(&g);
        let mut expected: HashMap<String, u128> = HashMap::new();
        for n in xml.preorder() {
            *expected.entry(xml.label(n).to_string()).or_insert(0) += 1;
        }
        // Null leaves: one per element (missing first child or sibling) + 1.
        let nulls = counts.get("#").copied().unwrap_or(0);
        assert_eq!(nulls, xml.node_count() as u128 + 1);
        for (label, count) in expected {
            assert_eq!(counts.get(&label).copied().unwrap_or(0), count, "label {label}");
        }
        assert_eq!(element_count(&g), xml.node_count() as u128);
    }

    #[test]
    fn at_root_and_frame_depth_basics() {
        let g = paper_grammar();
        let mut cursor = Cursor::new(&g);
        assert!(cursor.at_root());
        assert!(cursor.down(0));
        assert!(!cursor.at_root());
        assert!(cursor.frame_depth() >= 1);
        cursor.up();
        assert!(cursor.at_root());
    }

    #[test]
    fn shared_tables_revalidate_across_mutations() {
        let (mut g, _) = compressed("<a><b/><b/><b/><b/></a>");
        let tables = Arc::new(NavTables::build(&g));
        assert!(tables.is_current(&g));
        {
            let c1 = Cursor::with_tables(&g, tables.clone());
            let c2 = Cursor::with_tables(&g, tables.clone());
            assert_eq!(c1.label(), c2.label());
        }
        // Any body mutation flips is_current through the version counters.
        let op = xmltree::updates::UpdateOp::Rename {
            target: 1,
            label: "c".to_string(),
        };
        crate::update::apply_update(&mut g, &op).unwrap();
        assert!(!tables.is_current(&g));
        let fresh = NavTables::build(&g);
        assert!(fresh.is_current(&g));
        let mut cursor = Cursor::with_tables(&g, Arc::new(fresh));
        assert!(cursor.doc_first_child());
        assert_eq!(cursor.label(), "c");
    }

    #[test]
    fn positional_jumps_agree_with_stepping_everywhere() {
        let (g, _) = compressed(
            "<lib><book><ch><p/><p/></ch><ch/></book><book><ch><p/><p/></ch><ch/></book><x/></lib>",
        );
        let tables = Arc::new(NavTables::build(&g));
        let total = derived_size(&g);
        // Walk the whole derived tree in preorder by stepping; at every index
        // the jump must land on the same label with the same frame stack
        // semantics (verified via label + subtree_size + parent label).
        let mut stepper = Cursor::with_tables(&g, tables.clone());
        let mut element_index: u128 = 0;
        for idx in 0..total {
            let mut jumper = Cursor::with_tables(&g, tables.clone());
            assert!(jumper.node_at_preorder(idx), "index {idx} in range");
            assert_eq!(jumper.label(), stepper.label(), "label at {idx}");
            assert_eq!(jumper.rank(), stepper.rank());
            if !stepper.is_null() {
                let mut by_element = Cursor::with_tables(&g, tables.clone());
                assert!(by_element.nth_element(element_index));
                assert_eq!(by_element.label(), stepper.label(), "element {element_index}");
                element_index += 1;
            }
            // Advance the stepper in preorder.
            if stepper.rank() > 0 {
                stepper.down(0);
            } else {
                loop {
                    match stepper.up() {
                        None => break,
                        Some(i) if i + 1 < stepper.rank() => {
                            stepper.down(i + 1);
                            break;
                        }
                        Some(_) => continue,
                    }
                }
            }
        }
        // Out-of-range jumps refuse and stay put.
        let mut c = Cursor::with_tables(&g, tables.clone());
        c.down(0);
        let label = c.label().to_string();
        assert!(!c.node_at_preorder(total));
        assert!(!c.nth_element(element_index));
        assert_eq!(c.label(), label);
    }

    #[test]
    fn subtree_size_matches_materialized_subtrees() {
        let (g, _) = compressed(
            "<db><r><k/><v><a/><b/></v></r><r><k/><v><a/><b/></v></r><r><k/><v/></r></db>",
        );
        let val = sltgrammar::derive::val(&g).unwrap();
        let pre = val.preorder();
        let tables = Arc::new(NavTables::build(&g));
        for (idx, &node) in pre.iter().enumerate() {
            let mut c = Cursor::with_tables(&g, tables.clone());
            assert!(c.node_at_preorder(idx as u128));
            assert_eq!(
                c.subtree_size(),
                val.subtree_size(node) as u128,
                "subtree size at preorder {idx}"
            );
        }
        // The root's subtree is the whole derived tree.
        let mut c = Cursor::with_tables(&g, tables);
        assert_eq!(c.subtree_size(), derived_size(&g));
        // Constant across down/up round trips.
        c.down(0);
        c.up();
        assert_eq!(c.subtree_size(), derived_size(&g));
    }

    #[test]
    fn positional_jump_works_on_exponentially_compressed_grammars() {
        // 2^20 a-nodes in a monadic chain: jumps must not expand anything.
        let mut text = String::from("S -> A1(A1(#))\n");
        for i in 1..=19 {
            text.push_str(&format!("A{i} -> A{}(A{}(y1))\n", i + 1, i + 1));
        }
        text.push_str("A20 -> a(y1)");
        let g = parse_grammar(&text).unwrap();
        let total = derived_size(&g);
        assert_eq!(total, (1u128 << 20) + 1);
        let tables = Arc::new(NavTables::build(&g));
        let mut c = Cursor::with_tables(&g, tables);
        for idx in [0u128, 1, 12345, total - 2] {
            assert!(c.node_at_preorder(idx));
            assert_eq!(c.label(), "a");
            assert_eq!(c.subtree_size(), total - idx);
        }
        assert!(c.node_at_preorder(total - 1));
        assert!(c.is_null());
        assert!(!c.node_at_preorder(total));
    }

    #[test]
    fn hole_layout_counts_elements_in_document_order() {
        // B -> b(y2, y1): holes must come back in document order (y2 first)
        // with correct element offsets.
        let g = parse_grammar("S -> f(B(a(#,#), c(#,#)), #)\nB -> b(y2, y1)").unwrap();
        let tables = NavTables::build(&g);
        let b = g.nt_by_name("B").unwrap();
        let nav = tables.rule(b);
        assert_eq!(nav.own_elems, 1);
        assert_eq!(nav.holes.len(), 2);
        assert_eq!(nav.holes[0].param, 1, "y2 precedes y1 in document order");
        assert_eq!(nav.holes[0].elems_before, 1);
        assert_eq!(nav.holes[1].param, 0);
        assert_eq!(nav.holes[1].elems_before, 1);
        // The whole document: f, b, c, a = 4 elements.
        assert_eq!(element_count(&g), 4);
    }
}
