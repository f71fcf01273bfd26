//! # grammar-repair — incremental updates on compressed XML
//!
//! A from-scratch Rust implementation of the ICDE 2016 paper *Incremental
//! Updates on Compressed XML* (Böttcher, Hartel, Jacobs, Maneth): RePair
//! compression executed **directly on an SLCF tree grammar** (GrammarRePair)
//! combined with update operations that never decompress the document.
//!
//! The crate provides these layers:
//!
//! * [`repair`] — the [`repair::GrammarRePair`] recompressor (Algorithm 1 with
//!   the optimized replacement of Algorithms 6–8), built on
//!   [`occurrences`] (usage-weighted digram occurrence generators,
//!   TREEPARENT / TREECHILD / RETRIEVEOCCS), [`occ_index`] (the incrementally
//!   maintained occurrence table + frequency queue that keeps rounds from
//!   paying O(grammar)) and [`replace`] (localization by minimal inlining,
//!   greedy local replacement, fragment export).
//! * [`isolate`] / [`update`] — path isolation (shared path prefixes
//!   isolated once) and the three update operations (rename, insert-before,
//!   delete-subtree) on the grammar, all applied by one engine,
//!   [`update::apply_batch`]; a single update is a batch of one.
//! * [`udc`] — the update–decompress–compress baseline the paper compares against.
//! * [`session`] / [`store`] — the application-facing handles:
//!   [`session::CompressedDom`], a mutable always-compressed single-document
//!   handle with a fixed-interval recompression policy, and
//!   [`store::DomStore`], the multi-document session it is a thin wrapper
//!   over — many documents behind one shared [`sltgrammar::SymbolTable`]
//!   (similar documents share one resident alphabet) and a store-level
//!   scheduler that recompresses by *update debt* (edge growth since the
//!   last recompression), draining the worst offenders on a budget.
//! * [`wal`] / [`durable`] / [`queue`] — crash safety and ingestion: a
//!   length-prefixed, CRC-framed write-ahead op log with leader-based group
//!   commit; [`durable::DurableStore`], a [`store::DomStore`] wrapper that
//!   logs every mutation before applying it, writes fuzzy checkpoints in a
//!   paged, offset-indexed format whose documents are decoded lazily on
//!   first touch, and recovers the exact pre-crash state (checkpoint +
//!   log-tail replay, torn final records truncated, interior corruption
//!   rejected loudly); and [`queue::IngestQueue`], which coalesces
//!   submitted per-document batches into single group-committed records.
//! * [`navigate`] / [`query`] — the read path: cursor navigation, streaming
//!   preorder traversal, label statistics and child/descendant path queries,
//!   all evaluated directly on the grammar without decompression and resolved
//!   through shared per-snapshot [`navigate::NavTables`] (invalidated via the
//!   [`sltgrammar::RhsTree::version`] counters, cached by
//!   [`session::CompressedDom`]).
//!
//! ## Example
//!
//! ```
//! use grammar_repair::session::CompressedDom;
//! use xmltree::parse::parse_xml;
//! use xmltree::updates::UpdateOp;
//!
//! let xml = parse_xml(
//!     "<log><e><t/><m/></e><e><t/><m/></e><e><t/><m/></e><e><t/><m/></e></log>"
//! ).unwrap();
//! let mut dom = CompressedDom::from_xml(&xml, 100);
//! // The grammar represents the full binary tree (2·13 + 1 nodes) of the document.
//! assert_eq!(dom.derived_size(), 27);
//!
//! // Rename the first <e> element (preorder index 1 of the binary tree)
//! // without decompressing the document.
//! dom.apply(&UpdateOp::Rename { target: 1, label: "entry".into() }).unwrap();
//! assert_eq!(dom.label_at(1).unwrap(), "entry");
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod durable;
pub mod error;
pub mod isolate;
pub mod navigate;
pub mod occ_index;
pub mod occurrences;
pub mod query;
pub mod queue;
pub mod repair;
pub mod replace;
pub mod server;
pub mod session;
pub mod store;
pub mod sync;
pub mod udc;
pub mod update;
pub mod wal;

pub use client::{Client, ClientConfig, Endpoint};
pub use durable::{CheckpointReport, DurableStore, RecoveryReport};
pub use error::{RepairError, Result};
pub use navigate::{Cursor, NavTables, PreorderLabels};
pub use query::{PathQuery, QueryMatches};
pub use queue::{
    BackpressurePolicy, DrainPolicy, IngestQueue, QueueConfig, QueueError, QueueStats, Ticket,
};
pub use server::{Server, ServerConfig, ServerStats};
pub use repair::{GrammarRePair, GrammarRePairConfig, RepairStats};
pub use session::CompressedDom;
pub use store::{DocId, DomStore, MaintenanceReport, SchedulerConfig, Snapshot};
pub use udc::{update_decompress_compress, UdcStats};
