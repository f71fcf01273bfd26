//! The traced run's in-process entry replays.
//!
//! Each replay feeds the same entry batch set to one layer's public entry
//! point, on a fresh store loaded with the same documents, and records one
//! span per entry call:
//!
//! | entry | call | span |
//! |---|---|---|
//! | queue | `IngestQueue::submit` → `wait`, drainer on `DrainPolicy::default()`, the workload's load shape | `queue.submit_wait` |
//! | durable | `DurableStore::apply_batch`, then `checkpoint` | `durable.apply_batch`, `durable.checkpoint` |
//! | query | `DurableStore::nav_tables`, `DurableStore::query_str` | `navigate.tables_build`, `query.eval` |
//! | wal | `Wal::commit` of the same records | `wal.commit` |
//! | store | `DomStore::apply_batch` with `auto = false`, then `maintain()` | `store.apply` ⊃ `update.apply_batch`, `repair.maintain` |
//! | server | `encode_request`/`decode_request`/`encode_response`/`decode_response` | `server.codec` |
//!
//! Every replay except the queue one is single-threaded, so its counts
//! repeat exactly for a given seed.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use grammar_repair::durable::{CheckpointReport, DurableStore};
use grammar_repair::queue::{DrainPolicy, IngestQueue, Ticket};
use grammar_repair::repair::RepairStats;
use grammar_repair::server::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
    WireBatchStats,
};
use grammar_repair::store::{DocId, DomStore, SchedulerConfig};
use grammar_repair::update::BatchStats;
use grammar_repair::wal::{DiskFs, Wal, WalRecord};

use crate::inputs::{Batch, Inputs, Load};
use crate::trace::Tracer;

/// Counts the entry replays produce (times live in the tracer's spans).
#[derive(Debug, Default)]
pub struct LayerRun {
    /// Entry batches replayed.
    pub batches: usize,
    /// Ops in them.
    pub ops: usize,
    /// Wall time of the queue replay (first submit to last wait), seconds.
    pub queue_wall_s: f64,
    /// `(document, batch index)` and submit→wait latency of each queue
    /// replay batch, milliseconds.
    pub queue_ms: Vec<((usize, usize), f64)>,
    /// WAL fsyncs of the durable replay, loads excluded.
    pub durable_syncs: u64,
    /// The durable replay's checkpoint.
    pub checkpoint: CheckpointReport,
    /// `nav_tables()` calls in the query replay, and how many returned the
    /// previous call's `Arc`.
    pub nav_calls: u64,
    /// See `nav_calls`.
    pub nav_hits: u64,
    /// Bytes the WAL replay appended.
    pub wal_bytes: u64,
    /// fsyncs of the WAL replay.
    pub wal_syncs: u64,
    /// Per-batch outcome of the store replay.
    pub batch_stats: Vec<BatchStats>,
    /// Every recompression of the store replay, with its share of the
    /// `maintain()` call's wall time in milliseconds.
    pub repairs: Vec<(f64, RepairStats)>,
    /// Final grammar edges per document of the store replay.
    pub final_edges: Vec<usize>,
    /// Final serialized XML per document of the store replay.
    pub final_xml: Vec<String>,
    /// `sltgrammar::serialize::encode` bytes of the final grammars.
    pub encoded_bytes: usize,
    /// Request frame bytes of the update requests the codec replay encoded.
    pub update_request_bytes: usize,
    /// Requests the codec replay round-tripped.
    pub codec_requests: usize,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The entry batch set in replay order: documents alternate under the
/// closed loop.
pub fn entry_order(inputs: &Inputs) -> Vec<Batch> {
    let e = inputs.entry_batches;
    match inputs.load {
        Load::Closed { .. } => (0..e)
            .flat_map(|k| (0..inputs.docs.len()).map(move |doc| inputs.batch(doc, k)))
            .collect(),
        Load::ReadMostly { .. } => (0..e).map(|k| inputs.batch(0, k)).collect(),
    }
}

fn request_id(b: Batch) -> u64 {
    ((b.doc as u64) << 32) | (b.start / b.len) as u64
}

fn open_durable(
    work: &Path,
    name: &str,
    inputs: &Inputs,
) -> Result<(DurableStore, Vec<DocId>), String> {
    let dir = work.join(name);
    let (store, _) =
        DurableStore::open(dir.to_str().ok_or("work directory is not UTF-8")?).map_err(err)?;
    let ids = inputs
        .docs
        .iter()
        .map(|d| store.load_xml(&d.xml))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    Ok((store, ids))
}

/// Runs every entry replay of `inputs` in `work`, recording spans in
/// `tracer`.
pub fn run(inputs: &Inputs, work: &Path, tracer: &Tracer) -> Result<LayerRun, String> {
    let order = entry_order(inputs);
    let mut out = LayerRun {
        batches: order.len(),
        ops: order.iter().map(|b| b.len).sum(),
        ..LayerRun::default()
    };
    queue_entry(inputs, work, tracer, &mut out)?;
    let ids = durable_entry(inputs, &order, work, tracer, &mut out)?;
    wal_entry(inputs, &order, &ids, work, tracer, &mut out)?;
    store_entry(inputs, &order, tracer, &mut out)?;
    codec_entry(inputs, &order, &ids, tracer, &mut out)?;
    Ok(out)
}

/// One queue replay batch: `(document, batch index)` and its submit→wait
/// latency in milliseconds.
type QueueSample = Result<((usize, usize), f64), String>;

/// Queue entry with the workload's own load shape, so head-of-line waits
/// show as they do behind the socket.
fn queue_entry(
    inputs: &Inputs,
    work: &Path,
    tracer: &Tracer,
    out: &mut LayerRun,
) -> Result<(), String> {
    let (store, ids) = open_durable(work, "queue", inputs)?;
    let queue = Arc::new(IngestQueue::new(Arc::new(store)));
    queue.start_drainer(DrainPolicy::default());
    let root = tracer.open();
    let start = Instant::now();
    let e = inputs.entry_batches;
    let record =
        |b: Batch, from: Instant, ticket: Ticket| -> Result<((usize, usize), f64), String> {
            let res = queue.wait(ticket);
            let done = Instant::now();
            tracer.record(root, "queue.submit_wait", request_id(b), from, done);
            res.map_err(err)?;
            Ok(((b.doc, b.start / b.len), (done - from).as_secs_f64() * 1e3))
        };
    let samples: Vec<QueueSample> = match &inputs.load {
        Load::Closed { window, .. } => std::thread::scope(|s| {
            let handles: Vec<_> = (0..inputs.docs.len().min(2))
                .map(|c| {
                    let (queue, ids, record) = (&queue, &ids, &record);
                    s.spawn(move || {
                        let mut inflight: VecDeque<(Batch, Instant, Ticket)> = VecDeque::new();
                        let mut res = Vec::new();
                        let mut k = 0;
                        loop {
                            while inflight.len() < *window && k < e {
                                let b = inputs.batch(c, k);
                                let at = Instant::now();
                                match queue.submit(ids[c], inputs.ops(b).to_vec()) {
                                    Ok(t) => inflight.push_back((b, at, t)),
                                    Err(e) => res.push(Err(err(e))),
                                }
                                k += 1;
                            }
                            let Some((b, at, t)) = inflight.pop_front() else {
                                break;
                            };
                            res.push(record(b, at, t));
                        }
                        res
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("queue load thread never panics"))
                .collect()
        }),
        Load::ReadMostly { write_every, .. } => (0..e)
            .map(|k| {
                let due = start + *write_every * k as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let b = inputs.batch(0, k);
                let t = queue.submit(ids[0], inputs.ops(b).to_vec()).map_err(err)?;
                record(b, due, t)
            })
            .collect(),
    };
    out.queue_wall_s = start.elapsed().as_secs_f64();
    tracer.close(root, 0, "entry.queue", 0, start, Instant::now());
    queue.stop_drainer();
    for s in samples {
        out.queue_ms.push(s?);
    }
    Ok(())
}

/// Durable entry: one `apply_batch` per entry batch, the query replay, and
/// a checkpoint.
fn durable_entry(
    inputs: &Inputs,
    order: &[Batch],
    work: &Path,
    tracer: &Tracer,
    out: &mut LayerRun,
) -> Result<Vec<DocId>, String> {
    let (store, ids) = open_durable(work, "durable", inputs)?;
    let loaded_syncs = store.wal_sync_count();
    let root = tracer.open();
    let start = Instant::now();
    let per_write = inputs.entry_queries_per_write;
    let read_mostly = matches!(inputs.load, Load::ReadMostly { .. });
    for &b in order {
        let id = ids[b.doc];
        tracer
            .span(root, "durable.apply_batch", request_id(b), || {
                store.apply_batch(id, inputs.ops(b))
            })
            .map_err(err)?;
        if read_mostly {
            query_round(
                &store,
                id,
                &inputs.queries_for(b.doc),
                per_write,
                tracer,
                root,
                out,
            )?;
        }
    }
    out.durable_syncs = store.wal_sync_count() - loaded_syncs;
    if !read_mostly {
        for (doc, &id) in ids.iter().enumerate() {
            query_round(
                &store,
                id,
                &inputs.queries_for(doc),
                per_write,
                tracer,
                root,
                out,
            )?;
        }
    }
    out.checkpoint = tracer
        .span(root, "durable.checkpoint", 0, || store.checkpoint())
        .map_err(err)?;
    tracer.close(root, 0, "entry.durable", 0, start, Instant::now());
    Ok(ids)
}

/// The first `nav_tables()` after a write (the rebuild), then `n` queries
/// cycling over `queries`, each preceded by a `nav_tables()` hit check.
fn query_round(
    store: &DurableStore,
    id: DocId,
    queries: &[String],
    n: usize,
    tracer: &Tracer,
    root: u64,
    out: &mut LayerRun,
) -> Result<(), String> {
    let mut prev = tracer
        .span(root, "navigate.tables_build", 0, || store.nav_tables(id))
        .map_err(err)?;
    out.nav_calls += 1;
    for i in 0..n {
        let tables = store.nav_tables(id).map_err(err)?;
        out.nav_calls += 1;
        if Arc::ptr_eq(&tables, &prev) {
            out.nav_hits += 1;
        }
        prev = tables;
        let q = &queries[i % queries.len()];
        tracer
            .span(root, "query.eval", i as u64, || store.query_str(id, q))
            .map_err(err)?;
    }
    Ok(())
}

/// WAL entry: `Wal::commit` of the same `ApplyBatch` records, real fsync.
fn wal_entry(
    inputs: &Inputs,
    order: &[Batch],
    ids: &[DocId],
    work: &Path,
    tracer: &Tracer,
    out: &mut LayerRun,
) -> Result<(), String> {
    let dir = work.join("wal");
    std::fs::create_dir_all(&dir).map_err(err)?;
    let path = dir.join("wal.log");
    let wal = Wal::new(
        Arc::new(DiskFs),
        path.to_str()
            .ok_or("work directory is not UTF-8")?
            .to_string(),
        0,
    );
    let root = tracer.open();
    let start = Instant::now();
    for &b in order {
        let record = WalRecord::ApplyBatch {
            doc: ids[b.doc],
            ops: inputs.ops(b),
        };
        tracer
            .span(root, "wal.commit", request_id(b), || wal.commit(&record))
            .map_err(err)?;
    }
    tracer.close(root, 0, "entry.wal", 0, start, Instant::now());
    out.wal_syncs = wal.sync_count();
    out.wal_bytes = std::fs::metadata(&path).map_err(err)?.len();
    Ok(())
}

/// Store entry: `apply_batch` with automatic maintenance off, then an
/// explicit `maintain()` — what the automatic path does after each batch.
fn store_entry(
    inputs: &Inputs,
    order: &[Batch],
    tracer: &Tracer,
    out: &mut LayerRun,
) -> Result<(), String> {
    let store = DomStore::new().with_scheduler(SchedulerConfig {
        auto: false,
        ..SchedulerConfig::default()
    });
    let ids = inputs
        .docs
        .iter()
        .map(|d| store.load_xml(&d.xml))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let root = tracer.open();
    let start = Instant::now();
    for &b in order {
        let id = ids[b.doc];
        let span = tracer.open();
        let t0 = Instant::now();
        let (stats, _) = tracer
            .span(span, "update.apply_batch", request_id(b), || {
                store.apply_batch(id, inputs.ops(b))
            })
            .map_err(err)?;
        let t1 = Instant::now();
        let report = store.maintain();
        let t2 = Instant::now();
        tracer.record(span, "repair.maintain", request_id(b), t1, t2);
        tracer.close(span, root, "store.apply", request_id(b), t0, t2);
        out.batch_stats.push(stats);
        let runs = report.drained.len();
        for (_, stats) in report.drained {
            out.repairs
                .push(((t2 - t1).as_secs_f64() * 1e3 / runs as f64, stats));
        }
    }
    tracer.close(root, 0, "entry.store", 0, start, Instant::now());
    for &id in &ids {
        let g = store.grammar(id).map_err(err)?;
        out.final_edges.push(g.edge_count());
        out.final_xml.push(store.to_xml(id).map_err(err)?.to_xml());
        out.encoded_bytes += sltgrammar::serialize::encode(&g).len();
    }
    Ok(())
}

/// Codec entry: each update request (and, for `read_mostly`, each query)
/// round-trips through the four frame codecs with its real reply.
fn codec_entry(
    inputs: &Inputs,
    order: &[Batch],
    ids: &[DocId],
    tracer: &Tracer,
    out: &mut LayerRun,
) -> Result<(), String> {
    let root = tracer.open();
    let start = Instant::now();
    for (i, &b) in order.iter().enumerate() {
        let req = Request::ApplyBatch {
            doc: ids[b.doc],
            ops: inputs.ops(b).to_vec(),
        };
        let resp = Response::Applied {
            stats: WireBatchStats {
                ops: b.len as u64,
                ..WireBatchStats::default()
            },
        };
        let bytes = tracer.span(root, "server.codec", request_id(b), || {
            codec_round_trip(i as u64, &req, &resp)
        })?;
        out.update_request_bytes += bytes;
        out.codec_requests += 1;
    }
    if let Load::ReadMostly { queries, .. } = &inputs.load {
        let final_tree =
            crate::socket::oracle_tree(inputs, 0, inputs.entry_batches * inputs.batch_ops())?;
        let mut frames = Vec::with_capacity(queries.len());
        for q in queries {
            let matches = grammar_repair::query::PathQuery::parse(q)
                .map_err(err)?
                .evaluate_uncompressed(&final_tree);
            let req = Request::Query {
                doc: ids[0],
                path: q.clone(),
            };
            frames.push((req, Response::Matches { matches }));
        }
        for i in 0..inputs.entry_batches * inputs.entry_queries_per_write {
            let (req, resp) = &frames[i % frames.len()];
            tracer.span(root, "server.codec", i as u64, || {
                codec_round_trip(i as u64, req, resp)
            })?;
            out.codec_requests += 1;
        }
    }
    tracer.close(root, 0, "entry.codec", 0, start, Instant::now());
    Ok(())
}

/// Encodes and decodes one request and its reply; returns the request
/// frame's length.
fn codec_round_trip(id: u64, req: &Request, resp: &Response) -> Result<usize, String> {
    let frame = encode_request(id, req);
    let header = grammar_repair::server::FRAME_HEADER_LEN;
    let (rid, decoded) = decode_request(&frame[header..]).map_err(err)?;
    std::hint::black_box((rid, decoded));
    let reply = encode_response(id, resp);
    let (rid, decoded) = decode_response(&reply[header..]).map_err(err)?;
    std::hint::black_box((rid, decoded));
    Ok(frame.len())
}
