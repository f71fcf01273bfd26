//! End-to-end checks of the worked examples in the paper's Sections II–IV.

use slt_xml::datasets::gn::{g8, g8_updated, g_exp, g_n};
use slt_xml::grammar_repair::isolate::{isolate, label_at};
use slt_xml::grammar_repair::repair::{GrammarRePair, GrammarRePairConfig};
use slt_xml::sltgrammar::fingerprint::{derived_size, fingerprint};
use slt_xml::sltgrammar::text::parse_grammar;
use slt_xml::xmltree::updates::UpdateOp;

/// Section II: the running grammar derives the binary tree of Figure 1 and has
/// the sizes used throughout the paper.
#[test]
fn preliminaries_running_example() {
    let g = parse_grammar(
        "S -> f(A(B,B),#)\n\
         B -> A(#,#)\n\
         A -> a(#, a(y1, y2))",
    )
    .unwrap();
    g.validate().unwrap();
    assert_eq!(g.edge_count(), 10);
    assert_eq!(derived_size(&g), 15);
    // Inlining B at (S,3) gives S -> f(A(A(#,#),B),#) with the same derivation.
    let mut inlined = g.clone();
    let b = inlined.nt_by_name("B").unwrap();
    let refs = inlined.refs();
    let &(caller, node) = refs[&b].first().unwrap();
    inlined.inline_at(caller, node);
    assert_eq!(fingerprint(&inlined), fingerprint(&g));
}

/// Section III-A: the string grammar G8 represents (ab)^8 and renaming its
/// first letter requires isolating the leftmost path only.
#[test]
fn path_isolation_on_g8() {
    let mut g = g8();
    assert_eq!(derived_size(&g), 17);
    // Position 0 is the first `a`; isolating it must not change the string and
    // at most doubles the grammar (Lemma 1).
    let before_edges = g.edge_count();
    let fp = fingerprint(&g);
    let (node, stats) = isolate(&mut g, 0).unwrap();
    assert!(g.rule(g.start()).rhs.kind(node).is_term());
    assert_eq!(fingerprint(&g), fp);
    assert!(stats.inlinings <= 4);
    assert!(g.edge_count() <= 2 * before_edges + 2);
    // After renaming the isolated node the first letter changes.
    let op = UpdateOp::Rename {
        target: 0,
        label: "c".to_string(),
    };
    slt_xml::grammar_repair::update::apply_update(&mut g, &op).unwrap();
    assert_eq!(label_at(&g, 0).unwrap(), "c");
    assert_eq!(label_at(&g, 1).unwrap(), "b");
}

/// Section III-A: in G_exp (a^1024) position 333 is reachable with a
/// logarithmic number of inlining steps.
#[test]
fn path_isolation_on_g_exp() {
    let mut g = g_exp();
    assert_eq!(derived_size(&g), 1025);
    let before = g.edge_count();
    let (_, stats) = isolate(&mut g, 332).unwrap();
    assert!(stats.inlinings <= 11, "inlinings: {}", stats.inlinings);
    assert!(g.edge_count() <= 2 * before + 2);
    assert_eq!(label_at(&g, 332).unwrap(), "a");
}

/// Sections III-B/C: recompressing the updated grammar for b(ab)^8a directly on
/// the grammar yields a grammar comparable to compressing the string from
/// scratch — the paper obtains size 10 with lemma generation vs 11 without.
#[test]
fn grammar_recompression_of_the_updated_string_grammar() {
    let mut g = g8_updated();
    let fp = fingerprint(&g);
    let input_edges = g.edge_count();
    let stats = GrammarRePair::default().recompress(&mut g);
    g.validate().unwrap();
    assert_eq!(fingerprint(&g), fp);
    // The represented string has 19 tree nodes; the recompressed grammar must
    // stay well below that and must not exceed the input grammar.
    assert!(stats.output_edges <= input_edges);
    assert!((stats.output_edges as u128) < derived_size(&g));

    // Without the optimization the result is still correct.
    let mut g2 = g8_updated();
    let config = GrammarRePairConfig {
        optimize: false,
        ..GrammarRePairConfig::default()
    };
    GrammarRePair::new(config).recompress(&mut g2);
    assert_eq!(fingerprint(&g2), fp);
}

/// Section V-B: the G_n family — the optimization keeps the blow-up bounded
/// while the non-optimized replacement blows up with the derived list length.
#[test]
fn gn_family_blowup_comparison() {
    let mut optimized_blowups = Vec::new();
    let mut unoptimized_blowups = Vec::new();
    for n in [5usize, 7, 9] {
        let fp = fingerprint(&g_n(n));

        let mut g = g_n(n);
        let stats = GrammarRePair::default().recompress(&mut g);
        assert_eq!(fingerprint(&g), fp, "optimized recompression changed G_{n}");
        optimized_blowups.push(stats.blowup());

        let mut g = g_n(n);
        let config = GrammarRePairConfig {
            optimize: false,
            ..GrammarRePairConfig::default()
        };
        let stats = GrammarRePair::new(config).recompress(&mut g);
        assert_eq!(fingerprint(&g), fp, "non-optimized recompression changed G_{n}");
        unoptimized_blowups.push(stats.blowup());
    }
    // Optimized blow-up stays essentially flat; the non-optimized one grows
    // with n (the derived list doubles with every step).
    let opt_growth = optimized_blowups.last().unwrap() / optimized_blowups.first().unwrap();
    let unopt_growth = unoptimized_blowups.last().unwrap() / unoptimized_blowups.first().unwrap();
    assert!(
        opt_growth < 3.0,
        "optimized blow-up should stay bounded: {optimized_blowups:?}"
    );
    assert!(
        unopt_growth > opt_growth,
        "non-optimized blow-up should grow faster: {unoptimized_blowups:?} vs {optimized_blowups:?}"
    );
}

/// Section IV-F: the concluding example — replacing (a,1,b) in Grammar 1 keeps
/// the derived tree and introduces a pattern rule used by several rules.
#[test]
fn concluding_example_grammar1() {
    let mut g = parse_grammar(
        "S -> r(C, r(C, r(A(c,c), B(c))))\n\
         C -> A(B(#),#)\n\
         A -> a(y1, a(B(#), a(#, y2)))\n\
         B -> b(y1,#)",
    )
    .unwrap();
    let fp = fingerprint(&g);
    let stats = GrammarRePair::default().recompress(&mut g);
    g.validate().unwrap();
    assert_eq!(fingerprint(&g), fp);
    assert!(stats.rounds >= 1);
    assert!(stats.replacements >= 2);
}
