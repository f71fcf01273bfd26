//! The update–decompress–compress (udc) baseline (paper Section V-C).
//!
//! Before this paper, the best known way to keep a grammar-compressed tree
//! small under updates was: perform the updates on the grammar (via path
//! isolation), then *decompress* the grammar to the full tree and *compress*
//! that tree from scratch with TreeRePair. GrammarRePair is compared against
//! this baseline in both compression quality (Figures 4 and 5) and runtime
//! (Figure 6).

use std::time::{Duration, Instant};

use sltgrammar::derive::val_limited;
use sltgrammar::Grammar;
use treerepair::{TreeRePair, TreeRePairConfig};
use xmltree::updates::UpdateOp;

use crate::error::Result;
use crate::update::apply_batch;

/// Timing and size breakdown of one udc run.
#[derive(Debug, Clone, Copy, Default)]
pub struct UdcStats {
    /// Time spent applying the updates on the grammar.
    pub update_time: Duration,
    /// Time spent decompressing the grammar to the full tree.
    pub decompress_time: Duration,
    /// Time spent compressing the tree from scratch with TreeRePair.
    pub compress_time: Duration,
    /// Number of edges of the decompressed tree (peak space proxy).
    pub decompressed_edges: usize,
    /// Edge count of the resulting grammar.
    pub output_edges: usize,
}

impl UdcStats {
    /// Total wall-clock time of the three phases.
    pub fn total_time(&self) -> Duration {
        self.update_time + self.decompress_time + self.compress_time
    }
}

/// Maximum number of nodes the decompression step is allowed to materialize.
pub const UDC_DECOMPRESSION_LIMIT: u64 = 200_000_000;

/// Applies `ops` to (a clone of) `g`, decompresses the result and compresses it
/// from scratch with TreeRePair — the paper's udc baseline. Returns the fresh
/// grammar and a breakdown of where the time went.
pub fn update_decompress_compress(
    g: &Grammar,
    ops: &[UpdateOp],
    config: TreeRePairConfig,
) -> Result<(Grammar, UdcStats)> {
    let mut stats = UdcStats::default();
    let mut updated = g.clone();

    let t0 = Instant::now();
    apply_batch(&mut updated, ops)?;
    stats.update_time = t0.elapsed();

    let t1 = Instant::now();
    let tree = val_limited(&updated, UDC_DECOMPRESSION_LIMIT)?;
    stats.decompress_time = t1.elapsed();
    stats.decompressed_edges = tree.edge_count();

    let t2 = Instant::now();
    let (compressed, tr_stats) =
        TreeRePair::new(config).compress_binary(updated.symbols.clone(), tree);
    stats.compress_time = t2.elapsed();
    stats.output_edges = tr_stats.output_edges;

    Ok((compressed, stats))
}

/// Decompress-and-recompress without any updates — the paper's "compression
/// from scratch" reference used to measure update overheads.
pub fn recompress_from_scratch(g: &Grammar, config: TreeRePairConfig) -> Result<(Grammar, UdcStats)> {
    update_decompress_compress(g, &[], config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sltgrammar::fingerprint::fingerprint;
    use sltgrammar::SymbolTable;
    use xmltree::binary::to_binary;
    use xmltree::parse::parse_xml;

    fn compressed_doc() -> Grammar {
        let mut doc = String::from("<log>");
        for _ in 0..40 {
            doc.push_str("<e><t/><m/></e>");
        }
        doc.push_str("</log>");
        let xml = parse_xml(&doc).unwrap();
        let mut symbols = SymbolTable::new();
        let bin = to_binary(&xml, &mut symbols).unwrap();
        let (g, _) = TreeRePair::default().compress_binary(symbols, bin);
        g
    }

    #[test]
    fn udc_produces_an_equivalent_small_grammar() {
        let g = compressed_doc();
        let ops = vec![
            UpdateOp::Rename {
                target: 1,
                label: "entry".to_string(),
            },
            UpdateOp::Delete { target: 4 },
        ];
        // Oracle: apply the same updates on the grammar only, one at a time.
        let mut oracle = g.clone();
        for op in &ops {
            crate::update::apply_update(&mut oracle, op).unwrap();
        }

        let (result, stats) = update_decompress_compress(&g, &ops, TreeRePairConfig::default()).unwrap();
        result.validate().unwrap();
        assert_eq!(fingerprint(&result), fingerprint(&oracle));
        assert_eq!(stats.output_edges, result.edge_count());
        assert!(stats.decompressed_edges >= stats.output_edges);
        assert!(stats.total_time() >= stats.compress_time);
    }

    #[test]
    fn recompress_from_scratch_preserves_the_document() {
        let g = compressed_doc();
        let (result, _) = recompress_from_scratch(&g, TreeRePairConfig::default()).unwrap();
        assert_eq!(fingerprint(&result), fingerprint(&g));
        assert!(result.edge_count() <= g.edge_count() + 2);
    }
}
