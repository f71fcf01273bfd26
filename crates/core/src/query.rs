//! Path queries over grammar-compressed XML (child / descendant axes).
//!
//! The paper lists XPath evaluation over SLCF grammars among the operations
//! that make grammar compression attractive for in-memory XML processing
//! (Lohrey & Maneth, *The complexity of tree automata and XPath on
//! grammar-compressed trees*). This module implements the core of that
//! capability for absolute path expressions built from the child (`/`) and
//! descendant-or-self (`//`) axes with element name tests and `*` wildcards,
//! e.g. `/site/regions//item/name` or `//book/*`.
//!
//! # Evaluation modes
//!
//! * [`PathQuery::count`] — a memoized dynamic program **over the grammar**:
//!   each rule is evaluated once per distinct *context* (the set of query
//!   states reaching its root), so the running time depends on the grammar
//!   size, not on the document size. This works even when the derived
//!   document is exponentially larger than the grammar.
//! * [`PathQuery::evaluate`] — **output-sensitive materialization**: the same
//!   context DP produces a per-`(rule, context)` match summary (count plus
//!   the contexts flowing into each parameter hole), and document-order
//!   positions are then materialized by expanding **only** the regions that
//!   can still match. A rule instance whose summary says "no matches inside
//!   the body" is skipped in O(rank) using the precomputed element counts and
//!   parameter hole layout of [`crate::navigate::NavTables`]; a region whose
//!   context is empty (no live query states) is skipped the same way. Total
//!   cost is O(grammar × contexts + output + skipped-region plumbing) instead
//!   of O(document).
//! * [`PathQuery::evaluate_streaming`] — the previous cursor-based streaming
//!   evaluation, linear in the document. Kept verbatim as the **oracle** for
//!   the memoized path (`tests/navigation_differential.rs` pins them
//!   byte-identical), and as the honest baseline in the `query` bench group.
//!
//! Name tests are compiled to [`TermId`]s against the grammar's symbol table
//! once per evaluation (a label absent from the document can never match),
//! so the hot transition function compares integers, never strings; the
//! context memo is keyed by `(NtId, context)` through
//! [`sltgrammar::fxhash`].

use std::collections::HashMap;

use sltgrammar::{FxHashMap, Grammar, NodeId, NodeKind, NtId, SymbolTable, TermId};

use crate::error::{RepairError, Result};
use crate::navigate::{Cursor, NavKind, NavTables};

/// Axis of one query step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `/label` — the element must be a child of the previous match.
    Child,
    /// `//label` — the element must be a descendant of the previous match.
    Descendant,
}

/// One step of a path query: an axis plus a name test (`None` = `*`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The axis connecting this step to the previous one.
    pub axis: Axis,
    /// Element name to match; `None` matches any element.
    pub label: Option<String>,
}

impl Step {
    fn matches(&self, label: &str) -> bool {
        match &self.label {
            Some(want) => want == label,
            None => true,
        }
    }
}

/// A parsed absolute path query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathQuery {
    steps: Vec<Step>,
}

/// Result of materializing a query: the matching elements in document order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryMatches {
    /// 0-based document-order indices (among *elements*) of every match.
    pub positions: Vec<u64>,
    /// Labels of the matching elements, parallel to `positions`.
    pub labels: Vec<String>,
}

impl QueryMatches {
    /// Number of matches.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the query matched nothing.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }
}

/// Maximum number of steps: contexts are bitmasks in a `u32`.
const MAX_STEPS: usize = 31;

/// Name test of one step compiled against a symbol table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LabelTest {
    /// `*` — matches any element.
    Any,
    /// Matches exactly this terminal.
    Is(TermId),
    /// The queried name is not in the document's alphabet; never matches.
    Never,
}

/// Query steps with name tests resolved to [`TermId`]s — integer compares on
/// the hot transition path.
struct Compiled {
    steps: Vec<(Axis, LabelTest)>,
}

impl Compiled {
    fn new(query: &PathQuery, symbols: &SymbolTable) -> Self {
        let steps = query
            .steps
            .iter()
            .map(|s| {
                let test = match &s.label {
                    None => LabelTest::Any,
                    Some(name) => match symbols.get(name) {
                        Some(t) => LabelTest::Is(t),
                        None => LabelTest::Never,
                    },
                };
                (s.axis, test)
            })
            .collect();
        Compiled { steps }
    }

    /// State transition over terminal ids: given the states reaching an
    /// element (bitmask over step indices) and the element's terminal,
    /// returns `(states for its children, whether the element is a match)`.
    #[inline]
    fn transition(&self, ctx: u32, term: TermId) -> (u32, bool) {
        let mut next = 0u32;
        let mut matched = false;
        for (i, &(axis, test)) in self.steps.iter().enumerate() {
            if ctx & (1 << i) == 0 {
                continue;
            }
            if axis == Axis::Descendant {
                // `//` may skip this element entirely.
                next |= 1 << i;
            }
            let hit = match test {
                LabelTest::Any => true,
                LabelTest::Is(t) => t == term,
                LabelTest::Never => false,
            };
            if hit {
                if i + 1 == self.steps.len() {
                    matched = true;
                } else {
                    next |= 1 << (i + 1);
                }
            }
        }
        (next, matched)
    }
}

/// Memoized result of evaluating one rule under one incoming context.
#[derive(Debug, Clone)]
struct RuleOutcome {
    matches: u128,
    /// Context flowing into each parameter position.
    param_contexts: Vec<u32>,
}

/// Evaluates one rule under an incoming context (memoized).
///
/// `ctx_root` is the state set reaching the root node of `val(A)`. In the
/// first-child/next-sibling encoding an element's *first* binary child
/// receives the element's own transition result, while its *second* binary
/// child (the next sibling) shares the element's incoming context — so one
/// context per node is enough and it flows strictly downwards. Returns the
/// match count inside `val(A)` (excluding parameter subtrees) and the
/// context flowing out to each parameter position.
fn eval_rule(
    compiled: &Compiled,
    g: &Grammar,
    nt: NtId,
    ctx_root: u32,
    memo: &mut FxHashMap<(NtId, u32), RuleOutcome>,
) -> RuleOutcome {
    if let Some(hit) = memo.get(&(nt, ctx_root)) {
        return hit.clone();
    }
    let rule = g.rule(nt);
    let rhs = &rule.rhs;
    let mut outcome = RuleOutcome {
        matches: 0,
        param_contexts: vec![0u32; rule.rank],
    };
    // Work stack of (node, element context).
    let mut stack: Vec<(NodeId, u32)> = vec![(rhs.root(), ctx_root)];
    while let Some((node, ctx)) = stack.pop() {
        match rhs.kind(node) {
            NodeKind::Term(t) => {
                if g.symbols.is_null(t) {
                    continue;
                }
                let (child_ctx, matched) = compiled.transition(ctx, t);
                if matched {
                    outcome.matches += 1;
                }
                let children = rhs.children(node);
                debug_assert_eq!(children.len(), 2, "path queries require binary XML grammars");
                // First child: the element's first document child.
                stack.push((children[0], child_ctx));
                // Second child: the element's next sibling, which shares the
                // element's own incoming (parent) context.
                stack.push((children[1], ctx));
            }
            NodeKind::Nt(callee) => {
                let sub = eval_rule(compiled, g, callee, ctx, memo);
                outcome.matches += sub.matches;
                let args = rhs.children(node);
                for (j, &arg) in args.iter().enumerate() {
                    stack.push((arg, sub.param_contexts[j]));
                }
            }
            NodeKind::Param(j) => {
                outcome.param_contexts[j as usize] = ctx;
            }
        }
    }
    memo.insert((nt, ctx_root), outcome.clone());
    outcome
}

/// One instantiated rule entry of the materializer: which frame supplies the
/// rule's arguments, and where its call site sits in that frame's rule.
#[derive(Debug, Clone, Copy)]
struct FrameInfo {
    nt: NtId,
    ctx_frame: u32,
    call_pos: u32,
}

/// Work item of the materializer.
#[derive(Debug, Clone, Copy)]
enum Job {
    /// Expand the subtree at `pos` of frame `fi`'s rule under context `ctx`.
    Visit { fi: u32, pos: u32, ctx: u32 },
    /// Advance the element position counter without expanding anything.
    Advance(u128),
}

impl PathQuery {
    /// Parses an absolute path expression such as `/site//item/name`,
    /// `//keyword` or `/db/*/value`.
    pub fn parse(text: &str) -> Result<Self> {
        let text = text.trim();
        if !text.starts_with('/') {
            return Err(RepairError::InvalidQuery {
                detail: "query must be absolute (start with '/' or '//')".to_string(),
            });
        }
        let mut steps = Vec::new();
        let mut rest = text;
        while !rest.is_empty() {
            let axis = if let Some(r) = rest.strip_prefix("//") {
                rest = r;
                Axis::Descendant
            } else if let Some(r) = rest.strip_prefix('/') {
                rest = r;
                Axis::Child
            } else {
                return Err(RepairError::InvalidQuery {
                    detail: format!("expected '/' or '//' before `{rest}`"),
                });
            };
            let end = rest.find('/').unwrap_or(rest.len());
            let name = &rest[..end];
            rest = &rest[end..];
            if name.is_empty() {
                return Err(RepairError::InvalidQuery {
                    detail: "empty step (trailing slash or '///')".to_string(),
                });
            }
            if !name
                .chars()
                .all(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == '.' || c == '*')
            {
                return Err(RepairError::InvalidQuery {
                    detail: format!("invalid characters in step `{name}`"),
                });
            }
            let label = if name == "*" { None } else { Some(name.to_string()) };
            steps.push(Step { axis, label });
        }
        if steps.is_empty() {
            return Err(RepairError::InvalidQuery {
                detail: "query has no steps".to_string(),
            });
        }
        if steps.len() > MAX_STEPS {
            return Err(RepairError::InvalidQuery {
                detail: format!("queries are limited to {MAX_STEPS} steps"),
            });
        }
        Ok(PathQuery { steps })
    }

    /// The parsed steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// State transition over label strings — used by the streaming oracle and
    /// the uncompressed reference evaluation.
    fn transition(&self, ctx: u32, label: &str) -> (u32, bool) {
        let mut next = 0u32;
        let mut matched = false;
        for i in 0..self.steps.len() {
            if ctx & (1 << i) == 0 {
                continue;
            }
            let step = &self.steps[i];
            if step.axis == Axis::Descendant {
                // `//` may skip this element entirely.
                next |= 1 << i;
            }
            if step.matches(label) {
                if i + 1 == self.steps.len() {
                    matched = true;
                } else {
                    next |= 1 << (i + 1);
                }
            }
        }
        (next, matched)
    }

    /// Initial state set for the document root element.
    fn initial_context(&self) -> u32 {
        1
    }

    /// Counts the matching elements by a memoized dynamic program over the
    /// grammar. Works on arbitrarily (even exponentially) compressed binary
    /// XML grammars without touching the derived tree.
    pub fn count(&self, g: &Grammar) -> u128 {
        let compiled = Compiled::new(self, &g.symbols);
        let mut memo: FxHashMap<(NtId, u32), RuleOutcome> = FxHashMap::default();
        let outcome = eval_rule(&compiled, g, g.start(), self.initial_context(), &mut memo);
        outcome.matches
    }

    /// Materializes the matches in document order through the memoized
    /// context DP, expanding only regions that can still produce output (see
    /// the module docs). Builds private [`NavTables`]; use
    /// [`PathQuery::evaluate_with_tables`] to share a cached snapshot.
    ///
    /// Positions saturate at `u64::MAX` on documents with more than `2^64`
    /// elements (counting stays exact in [`PathQuery::count`]).
    pub fn evaluate(&self, g: &Grammar) -> QueryMatches {
        let tables = NavTables::build(g);
        self.evaluate_with_tables(g, &tables)
    }

    /// [`PathQuery::evaluate`] over prebuilt navigation tables (must be
    /// current for `g`, debug-asserted).
    pub fn evaluate_with_tables(&self, g: &Grammar, tables: &NavTables) -> QueryMatches {
        debug_assert!(tables.is_current(g), "NavTables are stale for this grammar snapshot");
        let compiled = Compiled::new(self, &g.symbols);
        let mut memo: FxHashMap<(NtId, u32), RuleOutcome> = FxHashMap::default();
        let mut out = QueryMatches::default();

        // Frame arena: entries are appended when a rule instance is expanded
        // and referenced by index from jobs; ancestors of any pending job are
        // always still reachable.
        let mut frames: Vec<FrameInfo> = vec![FrameInfo {
            nt: tables.start(),
            ctx_frame: 0,
            call_pos: 0,
        }];
        let mut jobs: Vec<Job> = vec![Job::Visit {
            fi: 0,
            pos: 0,
            ctx: self.initial_context(),
        }];
        // Document-order element position; u128 so the skip arithmetic of
        // pathological (deep-doubling) grammars saturates predictably.
        let mut position: u128 = 0;

        while let Some(job) = jobs.pop() {
            let (fi, pos, ctx) = match job {
                Job::Advance(d) => {
                    position = position.saturating_add(d);
                    continue;
                }
                Job::Visit { fi, pos, ctx } => (fi, pos, ctx),
            };
            let frame = frames[fi as usize];
            let nav = tables.rule(frame.nt);
            if ctx == 0 {
                // No live query states: nothing below can match. Skip the
                // whole region, forwarding only the parameter holes (their
                // contents also carry context 0 and are skipped in turn).
                match nav.kinds[pos as usize] {
                    NavKind::Param(j) => {
                        let caller = frames[frame.ctx_frame as usize];
                        let apos = tables.rule(caller.nt).child_pos(frame.call_pos, j);
                        jobs.push(Job::Visit {
                            fi: frame.ctx_frame,
                            pos: apos,
                            ctx: 0,
                        });
                    }
                    _ => {
                        position = position.saturating_add(nav.elems_at[pos as usize]);
                        let end = pos + nav.size[pos as usize];
                        for &(ppos, _) in &nav.params_by_pos {
                            if ppos > pos && ppos < end {
                                jobs.push(Job::Visit {
                                    fi,
                                    pos: ppos,
                                    ctx: 0,
                                });
                            }
                        }
                    }
                }
                continue;
            }
            match nav.kinds[pos as usize] {
                NavKind::Term { null: true, .. } => {}
                NavKind::Term { term, rank, .. } => {
                    debug_assert_eq!(rank, 2, "path queries require binary XML grammars");
                    let (child_ctx, matched) = compiled.transition(ctx, term);
                    if matched {
                        out.positions.push(position.min(u64::MAX as u128) as u64);
                        out.labels.push(g.symbols.name(term).to_string());
                    }
                    position = position.saturating_add(1);
                    let c0 = pos + 1;
                    let c1 = c0 + nav.size[c0 as usize];
                    // Next sibling keeps the parent context; pushed first so
                    // the first child is expanded first (document order).
                    jobs.push(Job::Visit { fi, pos: c1, ctx });
                    jobs.push(Job::Visit {
                        fi,
                        pos: c0,
                        ctx: child_ctx,
                    });
                }
                NavKind::Nt(callee) => {
                    let sub = eval_rule(&compiled, g, callee, ctx, &mut memo);
                    if sub.matches == 0 {
                        // The body cannot match: skip it in O(rank), visiting
                        // only the argument subtrees at their document-order
                        // offsets inside val(callee).
                        let cl = tables.rule(callee);
                        let mut seq: Vec<Job> = Vec::with_capacity(2 * cl.holes.len() + 1);
                        let mut prev = 0u128;
                        for h in &cl.holes {
                            seq.push(Job::Advance(h.elems_before.saturating_sub(prev)));
                            prev = h.elems_before;
                            seq.push(Job::Visit {
                                fi,
                                pos: nav.child_pos(pos, h.param),
                                ctx: sub.param_contexts[h.param as usize],
                            });
                        }
                        seq.push(Job::Advance(cl.own_elems.saturating_sub(prev)));
                        for s in seq.into_iter().rev() {
                            jobs.push(s);
                        }
                    } else {
                        let nfi = frames.len() as u32;
                        frames.push(FrameInfo {
                            nt: callee,
                            ctx_frame: fi,
                            call_pos: pos,
                        });
                        jobs.push(Job::Visit {
                            fi: nfi,
                            pos: 0,
                            ctx,
                        });
                    }
                }
                NavKind::Param(j) => {
                    let caller = frames[frame.ctx_frame as usize];
                    let apos = tables.rule(caller.nt).child_pos(frame.call_pos, j);
                    jobs.push(Job::Visit {
                        fi: frame.ctx_frame,
                        pos: apos,
                        ctx,
                    });
                }
            }
        }
        out
    }

    /// Materializes the matches by streaming over the document view of a
    /// [`Cursor`] — linear in the document size. This is the previous
    /// `evaluate` implementation, kept as the oracle for the memoized
    /// materializer and as the honest streaming baseline in the benches.
    pub fn evaluate_streaming(&self, g: &Grammar) -> QueryMatches {
        let mut out = QueryMatches::default();
        let mut cursor = Cursor::new(g);
        // DFS over elements carrying the context stack.
        let mut ctx_stack: Vec<u32> = vec![self.initial_context()];
        let mut position: u64 = 0;
        'outer: loop {
            let ctx = *ctx_stack.last().expect("context stack is never empty");
            let (child_ctx, matched) = self.transition(ctx, cursor.label());
            if matched {
                out.positions.push(position);
                out.labels.push(cursor.label().to_string());
            }
            position += 1;
            if cursor.doc_first_child() {
                ctx_stack.push(child_ctx);
                continue;
            }
            loop {
                if cursor.doc_next_sibling() {
                    break;
                }
                ctx_stack.pop();
                if !cursor.doc_parent() {
                    break 'outer;
                }
            }
        }
        out
    }

    /// Reference evaluation against an uncompressed [`xmltree::XmlTree`]; used
    /// by tests and the benchmark harness as the oracle.
    pub fn evaluate_uncompressed(&self, xml: &xmltree::XmlTree) -> QueryMatches {
        let mut out = QueryMatches::default();
        let order = xml.preorder();
        let index_of: HashMap<xmltree::XmlNodeId, u64> = order
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, i as u64))
            .collect();
        // DFS carrying contexts.
        let mut stack = vec![(xml.root(), self.initial_context())];
        let mut hits = Vec::new();
        while let Some((node, ctx)) = stack.pop() {
            let (child_ctx, matched) = self.transition(ctx, xml.label(node));
            if matched {
                hits.push((index_of[&node], xml.label(node).to_string()));
            }
            for &c in xml.children(node) {
                stack.push((c, child_ctx));
            }
        }
        hits.sort();
        for (p, l) in hits {
            out.positions.push(p);
            out.labels.push(l);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treerepair::TreeRePair;
    use xmltree::parse::parse_xml;

    const DOC: &str = "<site><regions><region><item><name/><price/></item>\
                       <item><name/></item></region><region><item><name/><price/></item>\
                       </region></regions><people><person><name/><address/></person>\
                       <person><name/></person></people></site>";

    fn compressed(doc: &str) -> (Grammar, xmltree::XmlTree) {
        let xml = parse_xml(doc).unwrap();
        let (g, _) = TreeRePair::default().compress_xml(&xml);
        (g, xml)
    }

    #[test]
    fn parser_accepts_and_rejects() {
        let q = PathQuery::parse("/site/regions//item/name").unwrap();
        assert_eq!(q.steps().len(), 4);
        assert_eq!(q.steps()[0].axis, Axis::Child);
        assert_eq!(q.steps()[2].axis, Axis::Descendant);
        assert_eq!(q.steps()[2].label.as_deref(), Some("item"));

        let q = PathQuery::parse("//name").unwrap();
        assert_eq!(q.steps().len(), 1);
        assert_eq!(q.steps()[0].axis, Axis::Descendant);

        let q = PathQuery::parse("/db/*/value").unwrap();
        assert!(q.steps()[1].label.is_none());

        assert!(PathQuery::parse("relative/path").is_err());
        assert!(PathQuery::parse("/").is_err());
        assert!(PathQuery::parse("/a//").is_err());
        assert!(PathQuery::parse("/a/b[1]").is_err());
        let long = format!("/{}", vec!["x"; 40].join("/"));
        assert!(PathQuery::parse(&long).is_err());
    }

    #[test]
    fn counts_match_all_evaluation_modes_and_the_oracle() {
        let (g, xml) = compressed(DOC);
        for query in [
            "/site",
            "/site/regions/region/item/name",
            "//name",
            "//item/name",
            "/site//name",
            "/site/*",
            "//*",
            "//region//name",
            "/site/people/person/address",
            "//absent",
            "/absent//name",
        ] {
            let q = PathQuery::parse(query).unwrap();
            let reference = q.evaluate_uncompressed(&xml);
            let streamed = q.evaluate_streaming(&g);
            let memoized = q.evaluate(&g);
            assert_eq!(streamed, reference, "streaming mismatch for {query}");
            assert_eq!(memoized, reference, "memoized mismatch for {query}");
            assert_eq!(
                q.count(&g),
                reference.len() as u128,
                "grammar count mismatch for {query}"
            );
        }
    }

    #[test]
    fn specific_counts_are_correct() {
        let (g, _) = compressed(DOC);
        assert_eq!(PathQuery::parse("//name").unwrap().count(&g), 5);
        assert_eq!(PathQuery::parse("//item/name").unwrap().count(&g), 3);
        assert_eq!(PathQuery::parse("//person/name").unwrap().count(&g), 2);
        assert_eq!(PathQuery::parse("/site/regions//price").unwrap().count(&g), 2);
        assert_eq!(PathQuery::parse("/name").unwrap().count(&g), 0);
        assert_eq!(PathQuery::parse("//*").unwrap().count(&g), 18);
    }

    #[test]
    fn evaluate_returns_document_order_positions() {
        let (g, xml) = compressed(DOC);
        let q = PathQuery::parse("//item").unwrap();
        let matches = q.evaluate(&g);
        assert_eq!(matches.len(), 3);
        assert!(!matches.is_empty());
        // Positions are strictly increasing and all labelled `item`.
        assert!(matches.positions.windows(2).all(|w| w[0] < w[1]));
        assert!(matches.labels.iter().all(|l| l == "item"));
        // Cross-check against the original document order.
        let order = xml.preorder();
        for &p in &matches.positions {
            assert_eq!(xml.label(order[p as usize]), "item");
        }
    }

    #[test]
    fn counting_works_on_exponentially_compressed_documents() {
        // A doubling chain deriving 2^16 <item><name/></item> records under a root:
        // the derived document has ~196k elements; counting must not materialize it.
        let mut text = String::from("S -> root(L1(#),#)\n");
        text.push_str("L1 -> C1(C1(y1))\n");
        for i in 1..=15 {
            text.push_str(&format!("C{i} -> C{}(C{}(y1))\n", i + 1, i + 1));
        }
        text.push_str("C16 -> item(name(#,#), y1)\n");
        let g = sltgrammar::text::parse_grammar(&text).unwrap();
        g.validate().unwrap();
        let items = PathQuery::parse("/root/item").unwrap().count(&g);
        assert_eq!(items, 1 << 16);
        let names = PathQuery::parse("//name").unwrap().count(&g);
        assert_eq!(names, 1 << 16);
        let nested = PathQuery::parse("/root/item/name").unwrap().count(&g);
        assert_eq!(nested, 1 << 16);
        let miss = PathQuery::parse("/root/name").unwrap().count(&g);
        assert_eq!(miss, 0);
    }

    #[test]
    fn memoized_evaluate_materializes_exponential_documents() {
        // Same doubling chain: evaluation must materialize all 2^16 item
        // positions without walking the null leaves or re-deriving the
        // document, and a miss query must return instantly and empty.
        let mut text = String::from("S -> root(L1(#),#)\n");
        text.push_str("L1 -> C1(C1(y1))\n");
        for i in 1..=15 {
            text.push_str(&format!("C{i} -> C{}(C{}(y1))\n", i + 1, i + 1));
        }
        text.push_str("C16 -> item(name(#,#), y1)\n");
        let g = sltgrammar::text::parse_grammar(&text).unwrap();
        let items = PathQuery::parse("/root/item").unwrap().evaluate(&g);
        assert_eq!(items.len(), 1 << 16);
        // Document order: root at 0, then item/name pairs.
        for (k, &p) in items.positions.iter().enumerate() {
            assert_eq!(p, 1 + 2 * k as u64);
        }
        let names = PathQuery::parse("/root/item/name").unwrap().evaluate(&g);
        assert_eq!(names.len(), 1 << 16);
        for (k, &p) in names.positions.iter().enumerate() {
            assert_eq!(p, 2 + 2 * k as u64);
        }
        let miss = PathQuery::parse("/root/absent//x").unwrap().evaluate(&g);
        assert!(miss.is_empty());
    }

    #[test]
    fn queries_survive_recompression_and_updates() {
        use crate::update::apply_update;
        use xmltree::updates::UpdateOp;
        let (mut g, _) = compressed(DOC);
        let before = PathQuery::parse("//name").unwrap().count(&g);
        // Rename the first element (document root stays put at index 0 of the
        // binary preorder; rename element at binary preorder index 1).
        let op = UpdateOp::Rename {
            target: 1,
            label: "zones".to_string(),
        };
        apply_update(&mut g, &op).unwrap();
        let q = PathQuery::parse("/site/zones//name").unwrap();
        assert_eq!(q.count(&g), 3);
        assert_eq!(q.evaluate(&g).len(), 3);
        crate::repair::GrammarRePair::default().recompress(&mut g);
        assert_eq!(q.count(&g), 3);
        assert_eq!(q.evaluate(&g).len(), 3);
        assert_eq!(PathQuery::parse("//name").unwrap().count(&g), before);
    }
}
