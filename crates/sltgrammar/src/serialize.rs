//! Compact binary serialization of SLCF grammars.
//!
//! Grammars are the *persistent* form of a compressed document (the paper's
//! scenario keeps the grammar in memory, but any DOM replacement also needs to
//! be loadable from and writable to disk). The format is byte-oriented and
//! deliberately simple:
//!
//! ```text
//! magic "SLTG"  version u8  crc32 u32-LE (over everything that follows)
//! symbol count          (varint)
//!   per symbol: rank (varint), name length (varint), name bytes (UTF-8)
//! rule count            (varint)
//!   per rule:   rank (varint), name length (varint), name bytes
//!   per rule:   node count (varint), nodes in preorder:
//!                 tag 0 = terminal  + symbol index (varint)
//!                 tag 1 = nonterminal + rule index (varint)
//!                 tag 2 = parameter + parameter index (varint)
//! ```
//!
//! Child counts are not stored: every label's rank is known from the header,
//! so the tree is reconstructed from the preorder stream alone. Rule indices
//! refer to the order in which rules are written (start rule first), making
//! the encoding independent of internal `NtId` values.
//!
//! All integers use LEB128 variable-length encoding, so small grammars stay
//! small: the encoded size is roughly `nodes + names` bytes.
//!
//! # Versioning and integrity
//!
//! Version 2 (current) places a CRC-32 of the body right after the version
//! byte; [`decode`] verifies it before parsing and rejects mismatches with
//! the dedicated [`GrammarError::Checksum`] variant, so bit rot in a stored
//! grammar is reported as corruption instead of as a confusing structural
//! error. Every other version, including the checksum-less version 1, is
//! rejected with an "unsupported format version" decode error.
//!
//! # Robustness against corrupt input
//!
//! `decode` is safe to run on untrusted bytes: every length field is checked
//! against the number of bytes actually remaining before any allocation is
//! sized from it (a flipped bit in a count cannot trigger an OOM-sized
//! `Vec::with_capacity`), and a successful decode always returns a validated
//! grammar. The property tests in `tests/serialization_baselines.rs` pin
//! this on arbitrary, truncated and bit-flipped inputs.

use crate::crc32::crc32;
use crate::error::{GrammarError, Result};
use crate::grammar::Grammar;
use crate::node::{NodeId, NodeKind};
use crate::rhs::RhsTree;
use crate::symbol::{NtId, SymbolTable, TermId};

/// Magic bytes identifying the format.
pub const MAGIC: &[u8; 4] = b"SLTG";
/// Current format version: CRC-32 of the body follows the version byte.
pub const VERSION: u8 = 2;
/// Byte offset of the CRC-32 field in a version-2 encoding; the checksummed
/// body starts at `CRC_OFFSET + 4`.
const CRC_OFFSET: usize = MAGIC.len() + 1;

// ----- varint primitives -----

fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    fn error(&self, detail: &str) -> GrammarError {
        GrammarError::Decode {
            offset: self.pos,
            detail: detail.to_string(),
        }
    }

    fn byte(&mut self) -> Result<u8> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| self.error("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            if shift >= 63 && byte > 1 {
                return Err(self.error("varint overflows 64 bits"));
            }
            value |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| self.error("unexpected end of input"))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn string(&mut self) -> Result<String> {
        let len = self.varint()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.error("name is not valid UTF-8"))
    }

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Reads a count varint and bounds it by the bytes actually remaining:
    /// every counted element occupies at least `min_bytes` bytes of input, so
    /// a larger count is corrupt and must not size an allocation.
    fn count(&mut self, min_bytes: usize, what: &str) -> Result<usize> {
        let n = self.varint()? as usize;
        if n > self.remaining() / min_bytes {
            return Err(self.error(&format!(
                "{what} count {n} exceeds what the remaining input could hold"
            )));
        }
        Ok(n)
    }

    fn finished(&self) -> bool {
        self.pos == self.data.len()
    }
}

// ----- encoding -----

/// Encodes a grammar into the compact binary format (version 2: the four
/// bytes after the version hold a CRC-32 of everything that follows them).
pub fn encode(g: &Grammar) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&[0u8; 4]); // CRC placeholder, patched below.

    // Symbol table.
    write_varint(&mut out, g.symbols.len() as u64);
    for (_, name, rank) in g.symbols.iter() {
        write_varint(&mut out, rank as u64);
        write_varint(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
    }

    // Rule order: start rule first, remaining live rules in NtId order.
    let mut order: Vec<NtId> = vec![g.start()];
    order.extend(g.nonterminals().into_iter().filter(|&nt| nt != g.start()));
    let index_of = |nt: NtId| -> u64 {
        order
            .iter()
            .position(|&x| x == nt)
            .expect("every referenced rule is live") as u64
    };

    write_varint(&mut out, order.len() as u64);
    for &nt in &order {
        let rule = g.rule(nt);
        write_varint(&mut out, rule.rank as u64);
        write_varint(&mut out, rule.name.len() as u64);
        out.extend_from_slice(rule.name.as_bytes());
    }
    for &nt in &order {
        let rhs = &g.rule(nt).rhs;
        let preorder = rhs.preorder();
        write_varint(&mut out, preorder.len() as u64);
        for node in preorder {
            match rhs.kind(node) {
                NodeKind::Term(t) => {
                    out.push(0);
                    write_varint(&mut out, t.0 as u64);
                }
                NodeKind::Nt(callee) => {
                    out.push(1);
                    write_varint(&mut out, index_of(callee));
                }
                NodeKind::Param(i) => {
                    out.push(2);
                    write_varint(&mut out, i as u64);
                }
            }
        }
    }
    let crc = crc32(&out[CRC_OFFSET + 4..]);
    out[CRC_OFFSET..CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
    out
}

// ----- decoding -----

/// Rank of a node label given the decoded headers.
fn label_rank(
    kind: &DecodedKind,
    symbol_ranks: &[usize],
    rule_ranks: &[usize],
) -> usize {
    match *kind {
        DecodedKind::Term(t) => symbol_ranks[t],
        DecodedKind::Nt(r) => rule_ranks[r],
        DecodedKind::Param(_) => 0,
    }
}

#[derive(Clone, Copy)]
enum DecodedKind {
    Term(usize),
    Nt(usize),
    Param(u32),
}

/// Decodes a grammar from its binary form. The result is validated before it
/// is returned, so a successful decode always yields a well-formed grammar.
pub fn decode(data: &[u8]) -> Result<Grammar> {
    let mut r = Reader::new(data);
    let magic = r.bytes(4)?;
    if magic != MAGIC {
        return Err(r.error("bad magic bytes (not an SLTG file)"));
    }
    let version = r.byte()?;
    if version != VERSION {
        return Err(r.error(&format!("unsupported format version {version}")));
    }
    let header = r.bytes(4)?;
    let expected = u32::from_le_bytes(header.try_into().expect("4-byte slice"));
    let found = crc32(&data[r.pos..]);
    if expected != found {
        return Err(GrammarError::Checksum { expected, found });
    }

    // Symbol table. Every count below is bounded by the bytes remaining
    // before it sizes an allocation (a corrupt count must not OOM).
    let symbol_count = r.count(2, "symbol")?;
    let mut symbols = SymbolTable::new();
    let mut symbol_ranks = Vec::with_capacity(symbol_count);
    for _ in 0..symbol_count {
        let rank = r.varint()? as usize;
        let name = r.string()?;
        let id = symbols.intern(&name, rank)?;
        if id.index() + 1 != symbols.len() {
            return Err(r.error(&format!("duplicate symbol `{name}` in symbol table")));
        }
        symbol_ranks.push(rank);
    }

    let (rule_names, rule_ranks, bodies) = decode_rules(&mut r, symbol_count, &symbol_ranks)?;
    if !r.finished() {
        return Err(r.error("trailing bytes after the grammar"));
    }
    assemble(symbols, rule_names, rule_ranks, bodies)
}

/// Reads the rule headers and preorder bodies (the format tail shared by
/// [`decode`] and [`decode_with_shared`]). Counts are bounded against the
/// remaining input before sizing any allocation.
fn decode_rules(
    r: &mut Reader<'_>,
    symbol_count: usize,
    symbol_ranks: &[usize],
) -> Result<(Vec<String>, Vec<usize>, Vec<RhsTree>)> {
    let rule_count = r.count(2, "rule")?;
    if rule_count == 0 {
        return Err(r.error("grammar must have at least a start rule"));
    }
    let mut rule_names = Vec::with_capacity(rule_count);
    let mut rule_ranks = Vec::with_capacity(rule_count);
    for _ in 0..rule_count {
        rule_ranks.push(r.varint()? as usize);
        rule_names.push(r.string()?);
    }

    let mut bodies: Vec<RhsTree> = Vec::with_capacity(rule_count);
    for rule_name in rule_names.iter().take(rule_count) {
        let node_count = r.count(2, "node")?;
        if node_count == 0 {
            return Err(r.error(&format!("rule `{rule_name}` has an empty body")));
        }
        // Read the preorder stream.
        let mut kinds = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let tag = r.byte()?;
            let value = r.varint()? as usize;
            let kind = match tag {
                0 => {
                    if value >= symbol_count {
                        return Err(r.error("terminal index out of range"));
                    }
                    DecodedKind::Term(value)
                }
                1 => {
                    if value >= rule_count {
                        return Err(r.error("rule index out of range"));
                    }
                    DecodedKind::Nt(value)
                }
                2 => DecodedKind::Param(value as u32),
                other => return Err(r.error(&format!("unknown node tag {other}"))),
            };
            kinds.push(kind);
        }
        bodies.push(rebuild_tree(r, &kinds, symbol_ranks, &rule_ranks)?);
    }
    Ok((rule_names, rule_ranks, bodies))
}

/// Assembles and validates a grammar from decoded parts: the start rule
/// (index 0) first, then the rest in written order.
fn assemble(
    symbols: SymbolTable,
    rule_names: Vec<String>,
    rule_ranks: Vec<usize>,
    bodies: Vec<RhsTree>,
) -> Result<Grammar> {
    let mut grammar = Grammar::new(symbols, bodies[0].clone());
    let start = grammar.start();
    grammar.rename_rule(start, &rule_names[0]);
    for i in 1..rule_names.len() {
        grammar.add_rule(&rule_names[i], rule_ranks[i], bodies[i].clone());
    }
    grammar.validate()?;
    Ok(grammar)
}

// ----- shared-alphabet encoding (checkpoint extents) -----

/// Encodes a grammar whose symbol table shares a sealed master prefix,
/// writing only the private tail of the alphabet. This is the per-document
/// extent payload of the store's checkpoint-v3 format:
///
/// ```text
/// shared prefix length  (varint — ids below this come from the master table)
/// tail symbol count     (varint)
///   per tail symbol: rank (varint), name length (varint), name bytes
/// rule headers + preorder bodies exactly as in the standalone format,
///   except terminal nodes store the *raw* `TermId` (valid against the
///   reconstructed master-prefix + tail table, so no remapping happens on
///   either side)
/// ```
///
/// There is no magic/version/CRC framing: the enclosing checkpoint indexes
/// and checksums each extent. [`decode_with_shared`] reverses this against
/// the restored master table.
pub fn encode_with_shared(g: &Grammar) -> Vec<u8> {
    let mut out = Vec::new();
    let shared_len = g.symbols.shared_len();
    write_varint(&mut out, shared_len as u64);
    write_varint(&mut out, (g.symbols.len() - shared_len) as u64);
    for (id, name, rank) in g.symbols.iter() {
        if id.index() < shared_len {
            continue;
        }
        write_varint(&mut out, rank as u64);
        write_varint(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
    }

    let mut order: Vec<NtId> = vec![g.start()];
    order.extend(g.nonterminals().into_iter().filter(|&nt| nt != g.start()));
    let index_of = |nt: NtId| -> u64 {
        order
            .iter()
            .position(|&x| x == nt)
            .expect("every referenced rule is live") as u64
    };
    write_varint(&mut out, order.len() as u64);
    for &nt in &order {
        let rule = g.rule(nt);
        write_varint(&mut out, rule.rank as u64);
        write_varint(&mut out, rule.name.len() as u64);
        out.extend_from_slice(rule.name.as_bytes());
    }
    for &nt in &order {
        let rhs = &g.rule(nt).rhs;
        let preorder = rhs.preorder();
        write_varint(&mut out, preorder.len() as u64);
        for node in preorder {
            match rhs.kind(node) {
                NodeKind::Term(t) => {
                    out.push(0);
                    write_varint(&mut out, t.0 as u64);
                }
                NodeKind::Nt(callee) => {
                    out.push(1);
                    write_varint(&mut out, index_of(callee));
                }
                NodeKind::Param(i) => {
                    out.push(2);
                    write_varint(&mut out, i as u64);
                }
            }
        }
    }
    out
}

/// Decodes an [`encode_with_shared`] payload against the master symbol
/// table it was encoded under (or any master extending it): the recorded
/// shared prefix is adopted zero-copy via [`SymbolTable::shared_prefix`]
/// (segment `Arc`s shared, nothing re-interned) and only the private tail
/// is interned on top. Safe on untrusted bytes: counts are bounded before
/// allocation, the prefix length must be a master segment boundary, tail
/// symbols must extend (not collide with) the prefix, and every terminal
/// id is range-checked. The result is validated before it is returned.
pub fn decode_with_shared(data: &[u8], master: &SymbolTable) -> Result<Grammar> {
    let mut r = Reader::new(data);
    let shared_len = r.varint()? as usize;
    if shared_len > master.len() {
        return Err(r.error(&format!(
            "shared prefix length {shared_len} exceeds the master table ({} symbols)",
            master.len()
        )));
    }
    let mut symbols = master.shared_prefix(shared_len)?;
    let tail_count = r.count(2, "tail symbol")?;
    for i in 0..tail_count {
        let rank = r.varint()? as usize;
        let name = r.string()?;
        let id = symbols.intern(&name, rank)?;
        if id.index() != shared_len + i {
            return Err(r.error(&format!(
                "tail symbol `{name}` collides with the shared prefix"
            )));
        }
    }
    let symbol_count = symbols.len();
    let symbol_ranks: Vec<usize> = (0..symbol_count)
        .map(|i| symbols.rank(TermId(i as u32)))
        .collect();
    let (rule_names, rule_ranks, bodies) = decode_rules(&mut r, symbol_count, &symbol_ranks)?;
    if !r.finished() {
        return Err(r.error("trailing bytes after the grammar"));
    }
    assemble(symbols, rule_names, rule_ranks, bodies)
}

/// Rebuilds an [`RhsTree`] from its preorder label stream; the rank of every
/// label dictates how many of the following nodes are its children.
fn rebuild_tree(
    r: &Reader<'_>,
    kinds: &[DecodedKind],
    symbol_ranks: &[usize],
    rule_ranks: &[usize],
) -> Result<RhsTree> {
    let to_kind = |k: &DecodedKind| -> NodeKind {
        match *k {
            DecodedKind::Term(t) => NodeKind::Term(TermId(t as u32)),
            DecodedKind::Nt(n) => NodeKind::Nt(NtId(n as u32)),
            DecodedKind::Param(i) => NodeKind::Param(i),
        }
    };
    let mut tree = RhsTree::singleton(to_kind(&kinds[0]));
    let root = tree.root();
    // Stack of (node, children still expected).
    let mut stack: Vec<(NodeId, usize)> = vec![(root, label_rank(&kinds[0], symbol_ranks, rule_ranks))];
    for kind in &kinds[1..] {
        // Attach under the innermost node that still expects children.
        while let Some(&(_, 0)) = stack.last() {
            stack.pop();
        }
        let parent = match stack.last_mut() {
            Some(top) => {
                top.1 -= 1;
                top.0
            }
            None => {
                return Err(GrammarError::Decode {
                    offset: r.pos,
                    detail: "preorder stream has more nodes than the ranks allow".to_string(),
                })
            }
        };
        let node = tree.add_leaf(to_kind(kind));
        tree.push_child(parent, node);
        stack.push((node, label_rank(kind, symbol_ranks, rule_ranks)));
    }
    // Every node must have received all its children.
    while let Some(&(_, 0)) = stack.last() {
        stack.pop();
    }
    if !stack.is_empty() {
        return Err(GrammarError::Decode {
            offset: r.pos,
            detail: "preorder stream ended before all children were supplied".to_string(),
        });
    }
    Ok(tree)
}

/// Encoded size in bytes of a grammar (convenience wrapper around [`encode`]).
pub fn encoded_size(g: &Grammar) -> usize {
    encode(g).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint;
    use crate::text::{parse_grammar, print_grammar};

    fn paper_grammar() -> Grammar {
        parse_grammar("S -> f(A(B,B),#)\nB -> A(#,#)\nA -> a(#, a(y1, y2))").unwrap()
    }

    /// Recomputes the CRC field after a test deliberately corrupts the body,
    /// so the corruption reaches the structural validation under test.
    fn reframe(bytes: &mut [u8]) {
        let crc = crc32(&bytes[CRC_OFFSET + 4..]);
        bytes[CRC_OFFSET..CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn roundtrip_preserves_structure_names_and_derived_tree() {
        let g = paper_grammar();
        let bytes = encode(&g);
        let back = decode(&bytes).unwrap();
        assert_eq!(fingerprint(&g), fingerprint(&back));
        assert_eq!(g.rule_count(), back.rule_count());
        assert_eq!(g.edge_count(), back.edge_count());
        assert_eq!(print_grammar(&g), print_grammar(&back));
    }

    #[test]
    fn roundtrip_of_an_exponential_grammar() {
        let mut text = String::from("S -> A1(A1(#))\n");
        for i in 1..=9 {
            text.push_str(&format!("A{i} -> A{}(A{}(y1))\n", i + 1, i + 1));
        }
        text.push_str("A10 -> a(y1)");
        let g = parse_grammar(&text).unwrap();
        let back = decode(&encode(&g)).unwrap();
        assert_eq!(fingerprint(&g), fingerprint(&back));
        assert_eq!(print_grammar(&g), print_grammar(&back));
    }

    #[test]
    fn encoding_is_compact() {
        let g = paper_grammar();
        let bytes = encode(&g);
        // 13 nodes, 6 symbols/rule names: stays well below 100 bytes.
        assert!(bytes.len() < 100, "unexpectedly large encoding: {} bytes", bytes.len());
        assert_eq!(encoded_size(&g), bytes.len());
    }

    #[test]
    fn rejects_corrupted_input() {
        let g = paper_grammar();
        let bytes = encode(&g);

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(decode(&bad), Err(GrammarError::Decode { .. })));

        // Bad version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(decode(&bad), Err(GrammarError::Decode { .. })));

        // Truncations at every length must error, never panic.
        for len in 0..bytes.len() {
            let truncated = &bytes[..len];
            assert!(decode(truncated).is_err(), "truncation to {len} bytes must fail");
        }

        // Trailing garbage (caught by the CRC before parsing even starts).
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(decode(&bad).is_err());

        // Trailing garbage with a fixed-up CRC still fails structurally.
        reframe(&mut bad);
        assert!(matches!(decode(&bad), Err(GrammarError::Decode { .. })));
    }

    #[test]
    fn checksum_mismatch_is_a_distinct_error() {
        let g = paper_grammar();
        let mut bytes = encode(&g);
        // Flip a bit in the body: the CRC check must fire with the dedicated
        // variant, not a confusing structural decode error.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        match decode(&bytes) {
            Err(GrammarError::Checksum { expected, found }) => assert_ne!(expected, found),
            other => panic!("expected Checksum error, got {other:?}"),
        }
        // Corrupting the CRC field itself is also a checksum mismatch.
        let mut bytes = encode(&g);
        bytes[CRC_OFFSET] ^= 0xFF;
        assert!(matches!(decode(&bytes), Err(GrammarError::Checksum { .. })));
    }

    #[test]
    fn v1_files_get_the_unsupported_version_error() {
        // A version-1 file is the version-2 body with no CRC field and the
        // version byte set to 1.
        let v2 = encode(&paper_grammar());
        let mut v1 = Vec::with_capacity(v2.len() - 4);
        v1.extend_from_slice(MAGIC);
        v1.push(1);
        v1.extend_from_slice(&v2[CRC_OFFSET + 4..]);
        match decode(&v1) {
            Err(GrammarError::Decode { detail, .. }) => {
                assert!(detail.contains("unsupported format version 1"), "{detail}")
            }
            other => panic!("expected the unsupported-version error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_counts_cannot_cause_huge_allocations() {
        // Hand-craft a file whose symbol count claims ~2^60 entries; decode
        // must reject it from the remaining-bytes bound, not try to allocate.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(VERSION);
        bytes.extend_from_slice(&[0u8; 4]);
        let mut body = Vec::new();
        write_varint(&mut body, 1u64 << 60);
        bytes.extend_from_slice(&body);
        reframe(&mut bytes);
        match decode(&bytes) {
            Err(GrammarError::Decode { detail, .. }) => {
                assert!(detail.contains("count"), "unexpected detail: {detail}")
            }
            other => panic!("expected Decode error, got {other:?}"),
        }
    }

    #[test]
    fn varint_roundtrip_edge_cases() {
        for value in [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, value);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), value);
            assert!(r.finished());
        }
    }

    #[test]
    fn shared_roundtrip_adopts_the_master_prefix() {
        // A fully sealed document table whose alphabet is a prefix of a
        // larger master: the payload records no tail and decodes against
        // the master's segments without re-interning anything.
        let mut g = paper_grammar();
        g.symbols.seal();
        let mut master = g.symbols.clone();
        master.intern("later-doc-label", 3).unwrap();
        master.seal();

        let bytes = encode_with_shared(&g);
        let back = decode_with_shared(&bytes, &master).unwrap();
        assert_eq!(fingerprint(&g), fingerprint(&back));
        assert_eq!(print_grammar(&g), print_grammar(&back));
        assert_eq!(back.symbols.shared_len(), g.symbols.len());
        // The payload is smaller than the standalone encoding: no symbol
        // names, no CRC framing.
        assert!(bytes.len() < encode(&g).len());
    }

    #[test]
    fn shared_roundtrip_with_a_private_tail() {
        // shared prefix [f, a] + private tail [b]; S -> f(a, b).
        let mut table = SymbolTable::new();
        let f = table.intern("f", 2).unwrap();
        let a = table.intern("a", 0).unwrap();
        table.seal();
        let master = table.clone();
        let b = table.intern("b", 0).unwrap();
        let mut rhs = RhsTree::singleton(NodeKind::Term(f));
        let root = rhs.root();
        for leaf in [a, b] {
            let node = rhs.add_leaf(NodeKind::Term(leaf));
            rhs.push_child(root, node);
        }
        let g = Grammar::new(table, rhs);
        g.validate().unwrap();

        let bytes = encode_with_shared(&g);
        let back = decode_with_shared(&bytes, &master).unwrap();
        assert_eq!(fingerprint(&g), fingerprint(&back));
        assert_eq!(print_grammar(&g), print_grammar(&back));
        assert_eq!(back.symbols.shared_len(), 2);
        assert_eq!(back.symbols.len(), 3);
    }

    #[test]
    fn shared_decode_rejects_corrupt_prefixes_and_tails() {
        let mut g = paper_grammar();
        g.symbols.seal();
        let master = g.symbols.clone();
        let bytes = encode_with_shared(&g);

        // A prefix length that is not a segment boundary of the master.
        let mut bad = bytes.clone();
        assert!(g.symbols.len() > 1, "test needs a multi-symbol grammar");
        bad[0] = 1; // varint shared_len = 1, mid-segment
        assert!(matches!(
            decode_with_shared(&bad, &master),
            Err(GrammarError::Decode { .. })
        ));

        // A prefix length beyond the master table.
        let mut bad = Vec::new();
        write_varint(&mut bad, master.len() as u64 + 10);
        bad.extend_from_slice(&bytes[1..]);
        assert!(decode_with_shared(&bad, &master).is_err());

        // Truncations at every length must error, never panic.
        for len in 0..bytes.len() {
            assert!(
                decode_with_shared(&bytes[..len], &master).is_err(),
                "truncation to {len} bytes must fail"
            );
        }
    }

    #[test]
    fn decode_validates_the_grammar() {
        // Hand-craft an encoding whose body references a parameter out of range;
        // validation must reject it instead of producing a broken grammar.
        let g = parse_grammar("S -> f(a(#,#),#)").unwrap();
        let mut bytes = encode(&g);
        // The last node of the only rule is a terminal `#` (tag 0). Overwrite it
        // with a parameter reference (tag 2, index 5): arity stays right but the
        // grammar becomes invalid (start rule has rank 0).
        let len = bytes.len();
        bytes[len - 2] = 2;
        bytes[len - 1] = 5;
        reframe(&mut bytes); // keep the CRC valid so validation is what fires
        assert!(decode(&bytes).is_err());
    }
}
