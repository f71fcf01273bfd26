//! The end-to-end run: a live `core::server` over a unix socket, driven by
//! `core::client` from at most two load threads on two connections.
//!
//! One repetition is: set up (open a durable store on the real filesystem,
//! start the server, load every document over the socket); the measured
//! phase; under the closed loop, a pass of path queries on the final
//! documents; a checkpoint and a fixed tail of batches sent one at a time;
//! the output checks; shutdown; and several timed reopens of the store. The
//! same function serves the traced run, where it sends exactly the entry
//! batch set instead of running for a fixed time.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grammar_repair::client::{Client, PendingApply};
use grammar_repair::durable::{DurableStore, RecoveryReport};
use grammar_repair::query::PathQuery;
use grammar_repair::queue::QueueStats;
use grammar_repair::server::{Server, ServerConfig};
use grammar_repair::store::DocId;
use sltgrammar::SymbolTable;
use xmltree::binary::{from_binary, to_binary};
use xmltree::updates::apply_update;
use xmltree::XmlTree;

use crate::inputs::{Inputs, Load};
use crate::trace::Tracer;

/// How long the measured phase lasts. The closed loop always sends its
/// entry batch set: its work comes in whole window rounds whose cost grows
/// with the document, and a deadline would cut a varying number of them.
#[derive(Debug, Clone, Copy)]
pub enum Phase {
    /// Send until the deadline, then wait for what is in flight.
    Timed(Duration),
    /// Send exactly the entry batch set.
    Entry,
}

/// Store reopens per repetition (`recovery_s` is the median over every
/// repetition's reopens).
pub const RECOVERY_REPS: usize = 10;

/// Everything one socket run measured and checked.
#[derive(Debug, Default)]
pub struct SocketRun {
    /// Wall time of the set-up, seconds.
    pub setup_s: f64,
    /// Measured phase: first send to last ack, seconds.
    pub wall_s: f64,
    /// Per-batch ack latency (send, or due time of a paced write, to
    /// `Applied`), milliseconds.
    pub update_ms: Vec<f64>,
    /// `(document, batch index)` of each `update_ms` sample.
    pub update_keys: Vec<(usize, usize)>,
    /// Per-query latency, milliseconds: the query stream of
    /// `read_mostly`, the final-document pass of the closed loop.
    pub query_ms: Vec<f64>,
    /// How late each paced write went out, milliseconds.
    pub lag_ms: Vec<f64>,
    /// Update ops acked in the measured phase.
    pub acked_ops: u64,
    /// Batches acked in the measured phase.
    pub acked_batches: u64,
    /// Requests attempted in the measured phase.
    pub attempted: u64,
    /// Error, timeout and backpressure replies in the measured phase.
    pub errors: u64,
    /// Batches sent per document, tail included.
    pub sent: Vec<usize>,
    /// `CheckpointReport.bytes` of the checkpoint taken after the
    /// measured phase.
    pub checkpoint_bytes: u64,
    /// Serialized XML bytes of the live documents at that checkpoint.
    pub checkpoint_xml_bytes: u64,
    /// Grammar edges of every document at load.
    pub load_edges: Vec<usize>,
    /// Grammar edges of every document at the end.
    pub final_edges: Vec<usize>,
    /// Edges of the final uncompressed documents (the oracle).
    pub derived_edges: Vec<usize>,
    /// Lifetime queue counters of the server's ingestion queue.
    pub queue: QueueStats,
    /// WAL fsyncs over the whole run (loads and tail included).
    pub wal_syncs: u64,
    /// `VmHWM` of the process from just before set-up to the end of the
    /// measured phase (and the closed loop's query pass), MiB.
    pub peak_rss_mb: f64,
    /// Each reopen's wall time (open plus first touch), seconds.
    pub recovery_s: Vec<f64>,
    /// First touch of every document after each reopen, milliseconds.
    pub first_touch_ms: Vec<f64>,
    /// The first reopen's recovery report.
    pub recovery: RecoveryReport,
    /// Recompressions the first reopen ran while replaying the tail.
    pub replay_repairs: usize,
    /// Output checks that failed (empty when the run is correct).
    pub failures: Vec<String>,
}

struct Live {
    dir: PathBuf,
    store: Arc<DurableStore>,
    server: Server,
    clients: [Client; 2],
    ids: Vec<DocId>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Opens a store in `dir`, starts the server on `sock` and loads every
/// document over the socket.
fn set_up(inputs: &Inputs, dir: &Path, sock: &Path) -> Result<Live, String> {
    let dir_str = dir.to_str().ok_or("work directory is not UTF-8")?;
    let (store, _) = DurableStore::open(dir_str).map_err(err)?;
    let store = Arc::new(store);
    let server =
        Server::serve_unix(Arc::clone(&store), sock, ServerConfig::default()).map_err(err)?;
    let clients = [Client::connect_unix(sock), Client::connect_unix(sock)];
    let mut ids = Vec::with_capacity(inputs.docs.len());
    for doc in &inputs.docs {
        ids.push(clients[0].load_xml(&doc.xml).map_err(err)?);
    }
    Ok(Live {
        dir: dir.to_path_buf(),
        store,
        server,
        clients,
        ids,
    })
}

fn tear_down(live: Live) {
    let Live {
        mut server,
        store,
        clients,
        ..
    } = live;
    drop(clients);
    server.shutdown();
    drop(server);
    drop(store);
}

/// Runs one repetition of `inputs` end to end in `work` (a private scratch
/// directory).
pub fn run(
    inputs: &Inputs,
    work: &Path,
    phase: Phase,
    tracer: Option<&Tracer>,
) -> Result<SocketRun, String> {
    let sock = work.join("s.sock");
    let mut out = SocketRun::default();
    // The inputs exist by now; the high-water mark from here on covers the
    // server, the store and the clients, not the generated documents'
    // history or a previous repetition's peak.
    reset_peak_rss();
    let start = Instant::now();
    let live = set_up(inputs, &work.join("store"), &sock)?;
    out.setup_s = start.elapsed().as_secs_f64();
    for &id in &live.ids {
        out.load_edges.push(live.store.edge_count(id).map_err(err)?);
    }
    out.sent = vec![0; inputs.docs.len()];

    let root = tracer.map_or(0, |t| t.open());
    let measured_start = Instant::now();
    match &inputs.load {
        Load::Closed { window, .. } => closed_loop(inputs, &live, *window, tracer, root, &mut out),
        Load::ReadMostly {
            queries,
            write_every,
        } => read_mostly(
            inputs,
            &live,
            phase,
            queries,
            *write_every,
            tracer,
            root,
            &mut out,
        ),
    }
    if let Some(t) = tracer {
        t.close(
            root,
            0,
            "socket.measured",
            0,
            measured_start,
            Instant::now(),
        );
    }
    if matches!(inputs.load, Load::Closed { .. }) {
        final_queries(inputs, &live, tracer, root, &mut out)?;
    }
    out.peak_rss_mb = peak_rss_mb();

    finish(inputs, live, &mut out)?;
    Ok(out)
}

fn request_id(doc: usize, k: usize) -> u64 {
    ((doc as u64) << 32) | k as u64
}

/// Closed loop: connection `c` drives document `c` with `window` batches
/// in flight, through the entry batch set (whole window rounds; see
/// `Phase`).
fn closed_loop(
    inputs: &Inputs,
    live: &Live,
    window: usize,
    tracer: Option<&Tracer>,
    root: u64,
    out: &mut SocketRun,
) {
    let start = Instant::now();
    let results: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..inputs.docs.len().min(2))
            .map(|c| {
                let client = &live.clients[c];
                let id = live.ids[c];
                s.spawn(move || {
                    let mut r = ConnResult::new(inputs.docs.len());
                    let mut inflight: VecDeque<(usize, Instant, PendingApply)> = VecDeque::new();
                    let mut k = 0;
                    loop {
                        while inflight.len() < window && k < inputs.entry_batches {
                            let b = inputs.batch(c, k);
                            let sent = Instant::now();
                            r.attempted += 1;
                            match client.begin_apply_batch(id, inputs.ops(b).to_vec()) {
                                Ok(p) => inflight.push_back((k, sent, p)),
                                Err(_) => r.errors += 1,
                            }
                            k += 1;
                        }
                        let Some((kk, sent, p)) = inflight.pop_front() else {
                            break;
                        };
                        let res = p.wait_applied();
                        let acked = Instant::now();
                        r.last_ack = Some(acked);
                        if let Some(t) = tracer {
                            t.record(root, "client.apply_batch", request_id(c, kk), sent, acked);
                        }
                        match res {
                            Ok(_) => {
                                r.acked_batches += 1;
                                r.acked_ops += inputs.batch(c, kk).len as u64;
                                r.update_ms.push(ms(acked - sent));
                                r.update_keys.push((c, kk));
                            }
                            Err(_) => r.errors += 1,
                        }
                    }
                    r.sent[c] = k;
                    r
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread never panics"))
            .collect()
    });
    merge(out, start, results);
}

/// Query pass of the closed loop: `entry_queries_per_write` path queries
/// per document on the documents the measured phase left, cycling over the
/// document's query set, one at a time on connection 0.
fn final_queries(
    inputs: &Inputs,
    live: &Live,
    tracer: Option<&Tracer>,
    root: u64,
    out: &mut SocketRun,
) -> Result<(), String> {
    for (doc, &id) in live.ids.iter().enumerate() {
        let queries = inputs.queries_for(doc);
        for i in 0..inputs.entry_queries_per_write {
            let q = &queries[i % queries.len()];
            let sent = Instant::now();
            live.clients[0].query(id, q).map_err(err)?;
            let done = Instant::now();
            if let Some(t) = tracer {
                t.record(root, "client.query", request_id(doc, i), sent, done);
            }
            out.query_ms.push(ms(done - sent));
        }
    }
    Ok(())
}

/// Read-mostly: connection 0 sends queries back to back, connection 1 one
/// rename batch per `every`.
#[allow(clippy::too_many_arguments)]
fn read_mostly(
    inputs: &Inputs,
    live: &Live,
    phase: Phase,
    queries: &[String],
    every: Duration,
    tracer: Option<&Tracer>,
    root: u64,
    out: &mut SocketRun,
) {
    let start = Instant::now();
    let id = live.ids[0];
    let results: Vec<ConnResult> = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut r = ConnResult::new(inputs.docs.len());
            let total = inputs.entry_batches * inputs.entry_queries_per_write;
            for i in 0.. {
                match phase {
                    Phase::Timed(d) if start.elapsed() >= d => break,
                    Phase::Entry if i >= total => break,
                    _ => {}
                }
                let q = &queries[i % queries.len()];
                let sent = Instant::now();
                r.attempted += 1;
                let res = live.clients[0].query(id, q);
                let done = Instant::now();
                r.last_ack = Some(done);
                if let Some(t) = tracer {
                    t.record(root, "client.query", i as u64, sent, done);
                }
                match res {
                    Ok(_) => r.query_ms.push(ms(done - sent)),
                    Err(_) => r.errors += 1,
                }
            }
            r
        });
        let writer = s.spawn(|| {
            let mut r = ConnResult::new(inputs.docs.len());
            let limit = inputs.batches_of(0) - inputs.tail_batches_per_doc;
            for k in 0..limit {
                let due = start + every * k as u32;
                match phase {
                    Phase::Timed(d) if due >= start + d => break,
                    Phase::Entry if k >= inputs.entry_batches => break,
                    _ => {}
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                r.lag_ms.push(ms(sent.saturating_duration_since(due)));
                r.attempted += 1;
                r.sent[0] = k + 1;
                let res = live.clients[1].apply_batch(id, inputs.ops(inputs.batch(0, k)).to_vec());
                let acked = Instant::now();
                r.last_ack = Some(acked);
                if let Some(t) = tracer {
                    t.record(root, "client.apply_batch", request_id(0, k), sent, acked);
                }
                match res {
                    Ok(_) => {
                        r.acked_batches += 1;
                        r.acked_ops += 1;
                        r.update_ms.push(ms(acked.saturating_duration_since(due)));
                        r.update_keys.push((0, k));
                    }
                    Err(_) => r.errors += 1,
                }
            }
            r
        });
        vec![
            reader.join().expect("reader never panics"),
            writer.join().expect("writer never panics"),
        ]
    });
    merge(out, start, results);
}

#[derive(Default)]
struct ConnResult {
    attempted: u64,
    errors: u64,
    acked_ops: u64,
    acked_batches: u64,
    update_ms: Vec<f64>,
    update_keys: Vec<(usize, usize)>,
    query_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    last_ack: Option<Instant>,
    /// Batches this thread sent per document.
    sent: Vec<usize>,
}

impl ConnResult {
    fn new(docs: usize) -> Self {
        ConnResult {
            sent: vec![0; docs],
            ..ConnResult::default()
        }
    }
}

fn merge(out: &mut SocketRun, start: Instant, results: Vec<ConnResult>) {
    let mut last = start;
    for r in results {
        out.attempted += r.attempted;
        out.errors += r.errors;
        out.acked_ops += r.acked_ops;
        out.acked_batches += r.acked_batches;
        out.update_ms.extend(r.update_ms);
        out.update_keys.extend(r.update_keys);
        out.query_ms.extend(r.query_ms);
        out.lag_ms.extend(r.lag_ms);
        if let Some(t) = r.last_ack {
            last = last.max(t);
        }
        for (total, n) in out.sent.iter_mut().zip(r.sent) {
            *total = (*total).max(n);
        }
    }
    out.wall_s = (last - start).as_secs_f64();
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Checkpoint, tail, output checks, shutdown and the timed reopens.
fn finish(inputs: &Inputs, live: Live, out: &mut SocketRun) -> Result<(), String> {
    let client = &live.clients[0];
    for &id in &live.ids {
        out.checkpoint_xml_bytes += client.to_xml(id).map_err(err)?.len() as u64;
    }
    out.checkpoint_bytes = client.checkpoint().map_err(err)?.bytes;
    for (doc, &id) in live.ids.iter().enumerate() {
        for _ in 0..inputs.tail_batches_per_doc {
            let b = inputs.batch(doc, out.sent[doc]);
            client
                .apply_batch(id, inputs.ops(b).to_vec())
                .map_err(err)?;
            out.sent[doc] += 1;
        }
    }

    // Every sent batch must be acked or counted as an error; a batch lost
    // either way leaves the documents off the oracle below.
    if out.errors > 0 {
        out.failures.push(format!(
            "{} requests failed in the measured phase",
            out.errors
        ));
    }
    let mut finals = Vec::with_capacity(live.ids.len());
    for (doc, &id) in live.ids.iter().enumerate() {
        let text = client.to_xml(id).map_err(err)?;
        let oracle = oracle_tree(inputs, doc, out.sent[doc] * inputs.batch_ops())?;
        if text != oracle.to_xml() {
            out.failures.push(format!(
                "document {doc} ({}): served XML differs from the uncompressed oracle",
                inputs.docs[doc].name
            ));
        }
        if let Load::ReadMostly { queries, .. } = &inputs.load {
            for q in queries {
                let served = client.query(id, q).map_err(err)?;
                let expected = PathQuery::parse(q)
                    .map_err(err)?
                    .evaluate_uncompressed(&oracle);
                if served != expected {
                    out.failures.push(format!(
                        "query `{q}` on the final snapshot differs from the oracle"
                    ));
                }
            }
        }
        out.final_edges
            .push(live.store.edge_count(id).map_err(err)?);
        out.derived_edges.push(oracle.edge_count());
        finals.push(text);
    }
    out.queue = live.server.queue().stats();
    out.wal_syncs = live.store.wal_sync_count();

    let dir = live.dir.clone();
    let ids = live.ids.clone();
    tear_down(live);
    let dir_str = dir.to_str().ok_or("work directory is not UTF-8")?;
    for rep in 0..RECOVERY_REPS {
        let start = Instant::now();
        let (store, report) = DurableStore::open(dir_str).map_err(err)?;
        let touch = Instant::now();
        for &id in &ids {
            store.snapshot(id).map_err(err)?;
        }
        let end = Instant::now();
        out.recovery_s.push((end - start).as_secs_f64());
        out.first_touch_ms.push(ms(end - touch));
        if rep == 0 {
            out.recovery = report;
            for &id in &ids {
                out.replay_repairs += store.dom().recompressions(id).map_err(err)?;
            }
            for (doc, &id) in ids.iter().enumerate() {
                let text = store.to_xml(id).map_err(err)?.to_xml();
                if text != finals[doc] {
                    out.failures.push(format!(
                        "document {doc}: reopened store serializes differently"
                    ));
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).map_err(err)?;
    Ok(())
}

/// The uncompressed oracle: `xmltree::updates::apply_update` over the
/// first `ops` ops of document `doc`'s sequence.
pub fn oracle_tree(inputs: &Inputs, doc: usize, ops: usize) -> Result<XmlTree, String> {
    let d = &inputs.docs[doc];
    let mut symbols = SymbolTable::new();
    let mut bin = to_binary(&d.xml, &mut symbols).map_err(err)?;
    for op in &d.ops[..ops] {
        apply_update(&mut bin, &mut symbols, op).map_err(err)?;
    }
    from_binary(&bin, &symbols).map_err(err)
}

/// Resets the process's `VmHWM` to its current resident size (Linux
/// `clear_refs`; a no-op where it is unavailable). Memory the allocator
/// still holds from earlier work is returned to the system first, so the
/// resident size is live data only.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` is glibc's documented call to release free
        // heap memory; it takes a plain integer and is safe to call at any
        // time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
