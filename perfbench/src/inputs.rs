//! Seeded workload inputs: the documents, each document's update sequence,
//! and how the load generator offers them to the server.
//!
//! Everything here is a pure function of the workload, the seed and the
//! size, so two runs with the same arguments send identical bytes. The
//! program under test only ever receives the generated documents, ops and
//! queries.

use std::time::Duration;

use datasets::catalog::Dataset;
use datasets::workload::{random_insert_delete_sequence, random_rename_sequence, WorkloadMix};
use xmltree::updates::UpdateOp;
use xmltree::XmlTree;

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 90/10 insert/delete mix on XMark and EXI-Weblog, one
    /// document per connection, closed loop.
    PaperMix,
    /// Back-to-back path queries on one XMark document, with single-rename
    /// batches at a fixed pace on the other connection.
    ReadMostly,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 2] = [Workload::PaperMix, Workload::ReadMostly];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper_mix",
            Workload::ReadMostly => "read_mostly",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: `Full` is the benchmark proper, `Smoke` the smallest size
/// the benchmark's own tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark reports.
    Full,
    /// Tiny documents and few batches, for tests.
    Smoke,
}

/// One contiguous slice of a document's op sequence, sent as one
/// `ApplyBatch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batch {
    /// Index into [`Inputs::docs`].
    pub doc: usize,
    /// First op of the slice in the document's sequence.
    pub start: usize,
    /// Number of ops.
    pub len: usize,
}

/// One document and the only op sequence it ever receives.
pub struct Doc {
    /// Dataset name and scale, for the report.
    pub name: String,
    /// The document as loaded.
    pub xml: XmlTree,
    /// Ops valid when applied in order from `xml`; every batch of the run
    /// is a consecutive slice of them.
    pub ops: Vec<UpdateOp>,
}

/// How the load generator offers requests.
#[derive(Debug, Clone)]
pub enum Load {
    /// Connection `c` drives document `c`, keeping `window` batches of
    /// `batch_ops` ops in flight.
    Closed {
        /// Pipelined batches in flight per connection.
        window: usize,
        /// Ops per batch.
        batch_ops: usize,
    },
    /// Connection 0 sends `queries` back to back (cycling) against
    /// document 0; connection 1 sends one-rename batches every
    /// `write_every`.
    ReadMostly {
        /// The path queries, in cycling order.
        queries: Vec<String>,
        /// Pace of the single-rename batches.
        write_every: Duration,
    },
}

/// Everything one run sends.
pub struct Inputs {
    /// The seed they were generated from.
    pub seed: u64,
    /// The documents, loaded in this order.
    pub docs: Vec<Doc>,
    /// The load shape.
    pub load: Load,
    /// Batches sent one at a time after the checkpoint, so recovery
    /// replays exactly this many log records.
    pub tail_batches_per_doc: usize,
    /// Batches per document the traced run's entry replays cover.
    pub entry_batches: usize,
    /// Queries per write in the traced run of `read_mostly`, or per
    /// document in `paper_mix`'s query pass over its final documents (the
    /// socket pass and the traced run's query entry).
    pub entry_queries_per_write: usize,
}

/// The path queries of `read_mostly`, also run on the final XMark document
/// of `paper_mix`.
pub const XMARK_QUERIES: [&str; 3] = ["//item/name", "//person", "/site/regions//keyword"];

/// The path queries run on the final EXI-Weblog document of `paper_mix`.
pub const WEBLOG_QUERIES: [&str; 2] = ["//entry/status", "/log/entry//bytes"];

/// Closed-loop window of `paper_mix` (batches in flight per connection).
const PAPER_WINDOW: usize = 8;
/// Ops per `paper_mix` batch.
const PAPER_BATCH_OPS: usize = 8;
/// Pace of `read_mostly`'s single-rename batches.
const READ_WRITE_EVERY: Duration = Duration::from_millis(200);

impl Inputs {
    /// Generates the inputs of `workload` for a repetition that measures
    /// for `seconds` (the closed loop always sends its entry batch set).
    pub fn generate(workload: Workload, seed: u64, seconds: f64, size: Size) -> Inputs {
        let smoke = size == Size::Smoke;
        match workload {
            Workload::PaperMix => {
                let scale = if smoke { 0.1 } else { 1.0 };
                // The tail after the checkpoint (16 ops, about 220 grammar
                // edges of growth per document) stays below the scheduler's
                // 512-edge debt threshold, so recovery replays no
                // recompression. A tail that crosses it replays 0, 1 or 2
                // recompressions depending on the ops, at 0.02 to 1.1 s per
                // reopen, which no bound on `recovery_s` could hold.
                let tail = 2;
                // Three window rounds per connection: with an odd count the
                // median and p90 ranks fall inside a round, not on the step
                // between two.
                // The smoke size still reaches one recompression.
                let entry = if smoke { 5 } else { 3 * PAPER_WINDOW };
                let count = (entry + tail) * PAPER_BATCH_OPS;
                let docs = [Dataset::XMark, Dataset::ExiWeblog]
                    .into_iter()
                    .enumerate()
                    .map(|(i, d)| {
                        let xml = d.generate(scale);
                        let ops = random_insert_delete_sequence(
                            &xml,
                            count,
                            mix_seed(seed, i),
                            WorkloadMix::paper_mix(0.0),
                        );
                        Doc {
                            name: format!("{} x{scale}", d.name()),
                            xml,
                            ops,
                        }
                    })
                    .collect();
                Inputs {
                    seed,
                    docs,
                    load: Load::Closed {
                        window: PAPER_WINDOW,
                        batch_ops: PAPER_BATCH_OPS,
                    },
                    tail_batches_per_doc: tail,
                    entry_batches: entry,
                    entry_queries_per_write: 60,
                }
            }
            Workload::ReadMostly => {
                let scale = if smoke { 0.1 } else { 2.0 };
                let tail = 4;
                let entry = if smoke { 3 } else { 40 };
                let write_every = if smoke {
                    Duration::from_millis(20)
                } else {
                    READ_WRITE_EVERY
                };
                let writes = (seconds / write_every.as_secs_f64()).ceil() as usize;
                let xml = Dataset::XMark.generate(scale);
                let ops = random_rename_sequence(&xml, writes.max(entry) + tail, mix_seed(seed, 0));
                Inputs {
                    seed,
                    docs: vec![Doc {
                        name: format!("XMark x{scale}"),
                        xml,
                        ops,
                    }],
                    load: Load::ReadMostly {
                        queries: XMARK_QUERIES.iter().map(|q| q.to_string()).collect(),
                        write_every,
                    },
                    tail_batches_per_doc: tail,
                    entry_batches: entry,
                    entry_queries_per_write: 19,
                }
            }
        }
    }

    /// Ops per batch of this workload's load.
    pub fn batch_ops(&self) -> usize {
        match &self.load {
            Load::Closed { batch_ops, .. } => *batch_ops,
            Load::ReadMostly { .. } => 1,
        }
    }

    /// The `k`-th batch of document `doc` (consecutive slices of its ops).
    pub fn batch(&self, doc: usize, k: usize) -> Batch {
        let len = self.batch_ops();
        Batch {
            doc,
            start: k * len,
            len,
        }
    }

    /// How many batches document `doc`'s sequence holds.
    pub fn batches_of(&self, doc: usize) -> usize {
        self.docs[doc].ops.len() / self.batch_ops()
    }

    /// The ops of `batch`.
    pub fn ops(&self, batch: Batch) -> &[UpdateOp] {
        &self.docs[batch.doc].ops[batch.start..batch.start + batch.len]
    }

    /// The query set the traced run's query entry runs against document
    /// `doc`.
    pub fn queries_for(&self, doc: usize) -> Vec<String> {
        match &self.load {
            Load::ReadMostly { queries, .. } => queries.clone(),
            _ if self.docs[doc].name.starts_with("XMark") => {
                XMARK_QUERIES.iter().map(|q| q.to_string()).collect()
            }
            _ => WEBLOG_QUERIES.iter().map(|q| q.to_string()).collect(),
        }
    }
}

/// Per-document seed stream, so documents of one run get independent
/// sequences and one seed fixes all of them.
fn mix_seed(seed: u64, doc: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((doc as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        ^ 0x94D0_49BB_1331_11EB
}
