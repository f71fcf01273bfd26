//! Digram occurrence generators on SLCF grammars (paper Section IV-A).
//!
//! On a grammar, a digram occurrence of `(a, i, b)` in the derived tree need not
//! be visible inside a single rule: the `a`-node and the `b`-node can live in
//! different rules, connected through nonterminal references and parameters.
//! Every occurrence has a unique *generator*: the (non-root, non-parameter) node
//! whose parent edge realizes it. `TREEPARENT` and `TREECHILD` walk from a
//! generator through transparent nonterminals to the terminal (or frozen
//! pattern) nodes forming the digram, and `RETRIEVEOCCS` collects, per digram,
//! all generators together with their usage-weighted occurrence count.
//!
//! # Delta propagation across recompression rounds
//!
//! [`retrieve_occs`] is a full-grammar walk. Rebuilding it per replacement
//! round made `GrammarRePair::recompress` pay O(grammar) per round — the cost
//! the paper's update model forbids. [`crate::occ_index::OccIndex`] therefore
//! maintains the same table incrementally, one generator node at a time; the
//! invariants any mutation must respect are:
//!
//! * **A splice names the nodes it changed.** Every structural or label
//!   change to a right-hand side (inlining, digram replacement, fragment
//!   export, rename) goes through `RhsTree` mutators, which bump
//!   [`sltgrammar::RhsTree::version`] and, while the index holds the rule's
//!   splice journal, record each node they create, relabel, attach or
//!   detach and each node whose child index they shift. Inside its rule, a
//!   generator's candidate reads only its own label, parent and child index
//!   and its parent's label, so the journaled nodes and their children are
//!   the only generators of the rule that can be stale.
//! * **Splices target reachable nodes; garbage is cut, never grown.** A node
//!   leaves the tree only when the root of its subtree is detached or
//!   replaced; that root is journaled and floating, so its arena subtree is
//!   exactly what must be retracted. No splice attaches or relabels nodes
//!   below garbage.
//! * **Chain walks are downward-only.** `TREEPARENT`/`TREECHILD` from a
//!   node of rule `R` enter only (transitive) callees of `R` — never
//!   callers. The index records, per generator, the rules its walks entered,
//!   and inverts that into a callee → generator-nodes map: when rule `C`
//!   changes or vanishes, precisely the generators whose walks entered `C`
//!   are rescanned in the other rules, nothing else.
//! * **Freezing is monotone and confined to fresh rules.** The frozen set only
//!   ever gains rules created *after* every existing rule was last scanned, and
//!   no pre-existing body references a fresh rule; a cached chain can therefore
//!   never cross a rule that later becomes frozen, so cached resolutions stay
//!   valid under freezing.
//! * **Weights factor through usage.** A generator in rule `R` contributes
//!   `usage(R)` to its digram's weight. Usage changes (inlining shifts
//!   reference counts) are propagated as `count × (usage_new − usage_old)`
//!   deltas per (rule, digram) pair without touching candidate sets.
//! * **Equal-label digrams are order-sensitive.** Their greedy overlap
//!   resolution depends on the global scan order — rules in anti-straight-line
//!   order, generators in preorder within a rule — so the index replays
//!   exactly that order per equal-label digram from cached per-rule candidate
//!   lists instead of maintaining them by deltas, and re-sorts a rule's lists
//!   by one preorder walk only when its equal-label candidates changed.

use sltgrammar::{FxHashMap, FxHashSet, Grammar, NodeId, NodeKind, NtId};
use treerepair::Digram;

/// Set of rules introduced by the *current* GrammarRePair run. They represent
/// already-replaced digrams and behave like terminals: chain walks stop at them
/// and they are never inlined or rescanned.
pub type FrozenSet = FxHashSet<NtId>;

/// Whether `kind` is a reference to a rule the current run may still look into
/// (i.e. a nonterminal that is not frozen).
pub fn is_transparent_nt(kind: NodeKind, frozen: &FrozenSet) -> bool {
    match kind {
        NodeKind::Nt(nt) => !frozen.contains(&nt),
        _ => false,
    }
}

/// A grammar-level address: a node within the right-hand side of a rule — the
/// paper's `(R, n)` pairs.
pub type GrammarNode = (NtId, NodeId);

/// One digram occurrence generator together with the resolved digram ends.
#[derive(Debug, Clone, Copy)]
pub struct Generator {
    /// Rule containing the generator node.
    pub rule: NtId,
    /// The generator node itself.
    pub node: NodeId,
    /// The resolved tree parent (rule, node) — labelled `a`.
    pub tree_parent: GrammarNode,
    /// The resolved tree child (rule, node) — labelled `b`.
    pub tree_child: GrammarNode,
}

/// Occurrence information for one digram.
#[derive(Debug, Clone, Default)]
pub struct DigramOccs {
    /// All recorded (non-overlapping) generators.
    pub generators: Vec<Generator>,
    /// Usage-weighted number of occurrences in the derived tree (saturating).
    pub weight: u64,
    /// Tree-parent and tree-child nodes already used, for overlap checks of
    /// equal-label digrams.
    used_parents: FxHashSet<GrammarNode>,
    used_children: FxHashSet<GrammarNode>,
}

impl DigramOccs {
    fn would_overlap(&self, parent: GrammarNode, child: GrammarNode) -> bool {
        overlaps(&self.used_parents, &self.used_children, parent, child)
    }
}

/// The equal-label overlap predicate shared by [`retrieve_occs`] and the
/// incremental index's replay: an occurrence `(parent, child)` overlaps the
/// already recorded ones if either endpoint was already used as an endpoint.
pub fn overlaps(
    used_parents: &FxHashSet<GrammarNode>,
    used_children: &FxHashSet<GrammarNode>,
    parent: GrammarNode,
    child: GrammarNode,
) -> bool {
    used_children.contains(&parent)
        || used_parents.contains(&child)
        || used_children.contains(&child)
        || used_parents.contains(&parent)
}

/// `TREECHILD` (paper Algorithm 2): follow transparent nonterminal references
/// downwards (to the referenced rule's root) until a terminal or frozen node is
/// reached.
pub fn tree_child(g: &Grammar, rule: NtId, node: NodeId, frozen: &FrozenSet) -> GrammarNode {
    tree_child_traced(g, rule, node, frozen, &mut |_| {})
}

/// [`tree_child`] that additionally reports every rule the walk enters to
/// `entered` (the incremental index's chain-dependency hook).
pub fn tree_child_traced(
    g: &Grammar,
    rule: NtId,
    node: NodeId,
    frozen: &FrozenSet,
    entered: &mut impl FnMut(NtId),
) -> GrammarNode {
    let mut rule = rule;
    let mut node = node;
    loop {
        let kind = g.rule(rule).rhs.kind(node);
        match kind {
            NodeKind::Nt(callee) if !frozen.contains(&callee) => {
                entered(callee);
                rule = callee;
                node = g.rule(callee).rhs.root();
            }
            _ => return (rule, node),
        }
    }
}

/// `TREEPARENT` (paper Algorithm 3): follow the parent upwards; whenever the
/// parent is a transparent nonterminal reference, continue at the corresponding
/// parameter's parent inside the referenced rule. Returns the tree parent node
/// and the child index of the edge.
///
/// The node must not be the root of its rule.
pub fn tree_parent(
    g: &Grammar,
    rule: NtId,
    node: NodeId,
    frozen: &FrozenSet,
) -> Option<(GrammarNode, usize)> {
    tree_parent_traced(g, rule, node, frozen, &mut |_| {})
}

/// [`tree_parent`] that additionally reports every rule the walk enters to
/// `entered` (the incremental index's chain-dependency hook).
pub fn tree_parent_traced(
    g: &Grammar,
    rule: NtId,
    node: NodeId,
    frozen: &FrozenSet,
    entered: &mut impl FnMut(NtId),
) -> Option<(GrammarNode, usize)> {
    let mut rule = rule;
    let mut node = node;
    loop {
        let rhs = &g.rule(rule).rhs;
        let parent = rhs.parent(node)?;
        let index = rhs.child_index(node)?;
        match rhs.kind(parent) {
            NodeKind::Nt(callee) if !frozen.contains(&callee) => {
                // The node is the `index`-th argument of the reference: continue
                // at the parameter node y_{index+1} inside the callee.
                entered(callee);
                let callee_rhs = &g.rule(callee).rhs;
                let param = callee_rhs.find_param(index as u32)?;
                rule = callee;
                node = param;
            }
            _ => return Some(((rule, parent), index)),
        }
    }
}

/// The digram label of a grammar node once chains have been resolved: terminals
/// and frozen references stand for themselves.
pub fn resolved_kind(g: &Grammar, (rule, node): GrammarNode) -> NodeKind {
    g.rule(rule).rhs.kind(node)
}

/// `RETRIEVEOCCS` (paper Algorithm 4): collects, per digram, the non-overlapping
/// occurrence generators over the whole grammar together with usage-weighted
/// occurrence counts. Frozen rules are not scanned.
///
/// This full walk is the *rebuild oracle*: `GrammarRePair` with the
/// [`treerepair::DigramSelector::NaiveScan`] selector calls it per round, and
/// the incremental [`crate::occ_index::OccIndex`] must agree with it exactly.
pub fn retrieve_occs(g: &Grammar, frozen: &FrozenSet) -> FxHashMap<Digram, DigramOccs> {
    let order = g
        .anti_sl_order()
        .expect("occurrence retrieval requires a straight-line grammar");
    let usage = g.usage();
    let mut table: FxHashMap<Digram, DigramOccs> = FxHashMap::default();

    for &rule in &order {
        if frozen.contains(&rule) {
            continue;
        }
        let rhs = &g.rule(rule).rhs;
        let root = rhs.root();
        for node in rhs.preorder() {
            if node == root || rhs.kind(node).is_param() {
                continue;
            }
            let Some((tp, index)) = tree_parent(g, rule, node, frozen) else {
                continue;
            };
            let tc = tree_child(g, rule, node, frozen);
            let digram = Digram {
                parent: resolved_kind(g, tp),
                child_index: index,
                child: resolved_kind(g, tc),
            };
            let entry = table.entry(digram).or_default();
            if digram.equal_labels() {
                // Never record equal-label occurrences whose tree child is the
                // root of another rule (the generator node is a nonterminal).
                if is_transparent_nt(rhs.kind(node), frozen) {
                    continue;
                }
                if entry.would_overlap(tp, tc) {
                    continue;
                }
            }
            entry.used_parents.insert(tp);
            entry.used_children.insert(tc);
            entry.generators.push(Generator {
                rule,
                node,
                tree_parent: tp,
                tree_child: tc,
            });
            entry.weight = entry
                .weight
                .saturating_add(usage.get(&rule).copied().unwrap_or(0));
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use sltgrammar::text::parse_grammar;

    /// The paper's "Grammar 1" fragment, embedded under a start rule that calls
    /// C three times and A twice (so usage(C)=3, usage(A)=2·1+3=5).
    fn grammar1() -> Grammar {
        parse_grammar(
            "S -> r(C, r(C, r(C, r(A(#,#), A(#,#)))))\n\
             C -> A(B(#),#)\n\
             A -> a(y1, a(B(#), a(#, y2)))\n\
             B -> b(y1,#)",
        )
        .unwrap()
    }

    fn term(g: &Grammar, name: &str) -> NodeKind {
        NodeKind::Term(g.symbols.get(name).unwrap())
    }

    #[test]
    fn tree_child_follows_rule_roots() {
        let g = grammar1();
        let frozen = FrozenSet::default();
        let c = g.nt_by_name("C").unwrap();
        let b = g.nt_by_name("B").unwrap();
        // Node (C,2) in paper addressing: the B-labelled argument of the A
        // reference in rule C. Its tree child is the b-labelled root of rule B.
        let rhs = &g.rule(c).rhs;
        let node = rhs.nth_preorder(2).unwrap();
        assert!(rhs.kind(node).is_nt());
        let (child_rule, child_node) = tree_child(&g, c, node, &frozen);
        assert_eq!(child_rule, b);
        assert_eq!(child_node, g.rule(child_rule).rhs.root());
        assert_eq!(resolved_kind(&g, (child_rule, child_node)), term(&g, "b"));
    }

    #[test]
    fn tree_parent_follows_parameters_into_callers() {
        let g = grammar1();
        let frozen = FrozenSet::default();
        let c = g.nt_by_name("C").unwrap();
        let a = g.nt_by_name("A").unwrap();
        // Node (C,2) is the first argument of the A reference; its tree parent
        // is the a-labelled root of rule A (the parent of y1), child index 0 —
        // the paper's TREEPARENT(C,2) = ((A,1), 1).
        let rhs = &g.rule(c).rhs;
        let node = rhs.nth_preorder(2).unwrap();
        let ((prule, pnode), idx) = tree_parent(&g, c, node, &frozen).unwrap();
        assert_eq!(prule, a);
        assert_eq!(idx, 0);
        assert_eq!(resolved_kind(&g, (prule, pnode)), term(&g, "a"));
        assert_eq!(pnode, g.rule(a).rhs.root());
    }

    #[test]
    fn retrieve_occs_weights_by_usage() {
        let g = grammar1();
        let frozen = FrozenSet::default();
        let table = retrieve_occs(&g, &frozen);
        // The digram (a,1,b) (paper notation) is generated by (A,4) [the B(#)
        // inside rule A, weight usage(A)=5] and by (C,3) [the B(#) argument
        // inside rule C, weight usage(C)=3]: total weight 8.
        let a = term(&g, "a");
        let b = term(&g, "b");
        let d = Digram {
            parent: a,
            child_index: 0,
            child: b,
        };
        let occs = table.get(&d).expect("digram (a,1,b) present");
        assert_eq!(occs.generators.len(), 2);
        assert_eq!(occs.weight, 8);
    }

    #[test]
    fn equal_label_digrams_do_not_cross_rule_roots() {
        // S calls A twice; within A there is an (a,2,a) chain; the A-references
        // themselves would form crossing occurrences which must not be counted.
        let g = parse_grammar(
            "S -> a(#, a(#, A))\n\
             A -> a(#, a(#, #))",
        )
        .unwrap();
        let frozen = FrozenSet::default();
        let table = retrieve_occs(&g, &frozen);
        let a = term(&g, "a");
        let d = Digram {
            parent: a,
            child_index: 1,
            child: a,
        };
        let occs = table.get(&d).expect("digram (a,2,a) present");
        // One occurrence inside S (its two a's) and one inside A; the crossing
        // occurrence S→A is not recorded because its tree child is A's root.
        assert_eq!(occs.generators.len(), 2);
        for gen in &occs.generators {
            assert!(!g.rule(gen.rule).rhs.kind(gen.node).is_nt());
        }
    }

    #[test]
    fn frozen_rules_behave_like_terminals() {
        let g = parse_grammar(
            "S -> f(X(#), X(#))\n\
             X -> a(b(y1,#),#)",
        )
        .unwrap();
        let x = g.nt_by_name("X").unwrap();
        let mut frozen = FrozenSet::default();
        frozen.insert(x);
        let table = retrieve_occs(&g, &frozen);
        // With X frozen, the only digrams seen from S are (f,i,X) and the ones
        // inside S; nothing inside X is scanned and no chain enters X.
        let fx0 = Digram {
            parent: term(&g, "f"),
            child_index: 0,
            child: NodeKind::Nt(x),
        };
        assert!(table.contains_key(&fx0));
        for d in table.keys() {
            assert_ne!(d.parent, term(&g, "b"));
            assert_ne!(d.child, term(&g, "b"));
        }
    }
}
