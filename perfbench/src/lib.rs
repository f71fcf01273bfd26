//! End-to-end and per-layer benchmark of the compressed XML store.
//!
//! `run` drives one workload through a live server and returns its
//! metrics and a readable report; see `README.md` beside this crate for the
//! workloads and the metric contract.

pub mod inputs;
pub mod layers;
pub mod socket;
pub mod stats;
pub mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use inputs::{Inputs, Load, Size, Workload};
use layers::LayerRun;
use socket::{Phase, SocketRun};
use stats::{beyond, median, percentile, Metrics};
use trace::Tracer;

/// What one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: the traced run's per-layer
    /// metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
}

/// The result of one invocation.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Metrics for the result line (printed only when `correct`).
    pub metrics: Metrics,
    /// Human-readable report printed before the result line.
    pub report: String,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// The single-threaded entry replays (traced runs only), for the
    /// determinism test.
    pub layers: Option<LayerRun>,
}

/// The end-to-end metrics `BENCHMARK.json` gates, reported by every
/// workload with tracing off. Tail latencies (`update_p90_ms`,
/// `query_p99_ms`) are printed but not gated: on a shared 2-vCPU host, CPU
/// steal moved `update_p90_ms` by a factor of 2 to 3 between runs (spread
/// 0.33 over ten `read_mostly` seeds), beyond the largest bound a gated
/// metric may have.
pub const GATED: [&str; 8] = [
    "setup_s",
    "update_ops_per_s",
    "update_p50_ms",
    "query_p50_ms",
    "recovery_s",
    "edge_ratio_pct",
    "ckpt_bytes_per_xml_byte",
    "peak_rss_mb",
];

/// Scratch directory for stores and sockets, under the current directory.
pub fn work_root() -> PathBuf {
    PathBuf::from(".bench_work")
}

/// Runs one invocation. Stores live in a private directory under
/// `work_root()`, removed before returning.
pub fn run(opts: Options) -> Result<Outcome, String> {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let work = work_root().join(format!(
        "{}-{}-{}",
        opts.workload.name(),
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    if work.exists() {
        std::fs::remove_dir_all(&work).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    let cpu_before = cpu_ticks();
    let result = if opts.trace {
        traced(
            &Inputs::generate(opts.workload, opts.seed, opts.seconds, opts.size),
            &work,
            opts,
        )
    } else {
        untraced(&work, opts)
    };
    let _ = std::fs::remove_dir_all(&work);
    result.map(|mut outcome| {
        if let (Some((steal0, all0)), Some((steal1, all1))) = (cpu_before, cpu_ticks()) {
            let _ = writeln!(
                outcome.report,
                "host: cpu steal {:.1} % of cpu time during the run (time other tenants of the host took; timings of runs with much steal are slower)",
                100.0 * ratio((steal1 - steal0) as f64, (all1 - all0) as f64)
            );
        }
        outcome
    })
}

/// `(steal, total)` cpu ticks of the host so far, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Length in seconds of one timed `read_mostly` repetition, each on a
/// fresh store: short enough that its renames stay below the first
/// recompression of the XMark document, as this workload's write path is
/// meant idle. Pooling several keeps one repetition's rhythm from setting
/// the whole run's figures.
const READ_REP_SECONDS: f64 = 7.5;

/// Seed of repetition `rep`; repetition 0 (and the traced run) uses the
/// run's seed itself.
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    if rep == 0 {
        return seed;
    }
    let mut z = seed ^ (rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn untraced(work: &Path, opts: Options) -> Result<Outcome, String> {
    let mut runs = Vec::new();
    let mut first = None;
    let started = std::time::Instant::now();
    loop {
        // Each repetition draws its own inputs from the seed, so a run
        // averages over several op sequences rather than repeating one.
        let reps = (opts.seconds / READ_REP_SECONDS).round().max(1.0) as usize;
        let each = opts.seconds / reps as f64;
        let inputs = Inputs::generate(
            opts.workload,
            rep_seed(opts.seed, runs.len()),
            each,
            opts.size,
        );
        let closed = matches!(inputs.load, Load::Closed { .. });
        // The closed loop's work comes in whole window rounds whose cost
        // grows with the document, so its repetition sends a fixed number
        // of rounds (the entry batch set) and the run repeats whole
        // repetitions, recovery included, until `seconds` is filled: a
        // deadline would cut a varying number of rounds. `read_mostly` runs
        // timed repetitions.
        let phase = if closed {
            Phase::Entry
        } else {
            Phase::Timed(Duration::from_secs_f64(each))
        };
        let run = socket::run(&inputs, work, phase, None)?;
        runs.push(run);
        first.get_or_insert(inputs);
        let spent = started.elapsed().as_secs_f64();
        let done = if closed {
            spent + 0.5 * spent / runs.len() as f64 > opts.seconds
        } else {
            runs.len() == reps
        };
        if done {
            break;
        }
    }
    let inputs = first.expect("at least one repetition");
    let inputs = &inputs;
    let all = end_to_end(&runs);
    let mut report = header(inputs, opts, work, &runs);
    report.push_str(&metric_table(&all));
    let metrics = Metrics(
        all.0
            .into_iter()
            .filter(|m| GATED.contains(&m.name.as_str()))
            .collect(),
    );
    Ok(Outcome {
        correct: runs.iter().all(|r| r.failures.is_empty()),
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.errors).sum(),
        metrics,
        report,
        failures: runs.into_iter().flat_map(|r| r.failures).collect(),
        layers: None,
    })
}

/// Every end-to-end metric the workload measures, gated or not, pooled
/// over the repetitions.
fn end_to_end(runs: &[SocketRun]) -> Metrics {
    let pool = |f: fn(&SocketRun) -> &Vec<f64>| {
        runs.iter()
            .flat_map(|r| f(r).iter().copied())
            .collect::<Vec<f64>>()
    };
    let total = |f: fn(&SocketRun) -> f64| runs.iter().map(f).sum::<f64>();
    let update_ms = pool(|r| &r.update_ms);
    let query_ms = pool(|r| &r.query_ms);
    let setup: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let recovery = pool(|r| &r.recovery_s);
    let mut m = Metrics::default();
    m.pct("setup_s", "s", &setup, 50.0);
    m.put(
        "update_ops_per_s",
        "ops/s",
        total(|r| r.acked_ops as f64) / total(|r| r.wall_s),
    );
    m.pct("update_p50_ms", "ms", &update_ms, 50.0);
    m.pct("update_p90_ms", "ms", &update_ms, 90.0);
    m.pct("query_p50_ms", "ms", &query_ms, 50.0);
    m.pct("query_p99_ms", "ms", &query_ms, 99.0);
    m.put(
        "error_rate",
        "fraction",
        total(|r| r.errors as f64) / total(|r| r.attempted as f64).max(1.0),
    );
    m.pct("recovery_s", "s", &recovery, 50.0);
    let grammar = total(|r| r.final_edges.iter().sum::<usize>() as f64);
    let derived = total(|r| r.derived_edges.iter().sum::<usize>() as f64);
    m.put("edge_ratio_pct", "%", 100.0 * grammar / derived.max(1.0));
    m.put(
        "ckpt_bytes_per_xml_byte",
        "ratio",
        total(|r| r.checkpoint_bytes as f64) / total(|r| r.checkpoint_xml_bytes as f64).max(1.0),
    );
    // Later repetitions start from the heap the earlier ones fragmented
    // (freed memory the per-thread malloc arenas keep), so only the
    // first, in a fresh process, measures the program's own peak.
    m.put("peak_rss_mb", "MiB", runs[0].peak_rss_mb);
    m
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mounts`.
fn filesystem_of(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The checkout's commit, read from `.git` when the checkout is a git
/// repository.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn header(inputs: &Inputs, opts: Options, work: &Path, runs: &[SocketRun]) -> String {
    let mut s = String::new();
    let width = std::thread::available_parallelism().map_or(0, |n| n.get());
    let _ = writeln!(
        s,
        "# perfbench {} seed={} seconds={} trace={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let _ = writeln!(
        s,
        "host: available_parallelism={width} flush=fsync (DurableStore::open on DiskFs) fs={} commit={}",
        filesystem_of(work),
        git_commit()
    );
    let load = match &inputs.load {
        Load::Closed { window, batch_ops } => {
            format!("closed loop, {window} batches x {batch_ops} ops in flight per connection, 2 connections")
        }
        Load::ReadMostly { queries, write_every } => format!(
            "connection 0: queries {queries:?} back to back; connection 1: 1-rename batch every {} ms",
            write_every.as_millis()
        ),
    };
    let _ = writeln!(s, "input: seed={} load: {load}", inputs.seed);
    for (i, d) in inputs.docs.iter().enumerate() {
        let _ = writeln!(
            s,
            "input: doc {i} {}: {} xml edges, {} grammar edges at load, {} ops generated",
            d.name,
            d.xml.edge_count(),
            runs.first()
                .and_then(|r| r.load_edges.get(i))
                .copied()
                .unwrap_or(0),
            d.ops.len(),
        );
    }
    for (rep, r) in runs.iter().enumerate() {
        let _ = writeln!(
            s,
            "rep {rep}: measured {:.3} s, {} requests, {} batches / {} ops acked, {} batches sent incl. tail of {} per doc, {} recompressions replayed on reopen, peak rss {:.1} MiB",
            r.wall_s,
            r.attempted,
            r.acked_batches,
            r.acked_ops,
            r.sent.iter().sum::<usize>(),
            inputs.tail_batches_per_doc,
            r.replay_repairs,
            r.peak_rss_mb
        );
    }
    s
}

fn metric_table(m: &Metrics) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<28} {:>14} {:<9} {:>8} {:>7}",
        "metric", "value", "unit", "samples", "beyond"
    );
    for metric in &m.0 {
        let (n, b) = match metric.samples {
            Some(n) => (
                n.to_string(),
                beyond(n, percentile_of(&metric.name)).to_string(),
            ),
            None => (String::new(), String::new()),
        };
        let _ = writeln!(
            s,
            "{:<28} {:>14.6} {:<9} {:>8} {:>7}",
            metric.name, metric.value, metric.unit, n, b
        );
    }
    s
}

/// The percentile a metric name denotes (`..._p90_...` → 90; medians and
/// plain values → 50).
fn percentile_of(name: &str) -> f64 {
    [("_p90", 90.0), ("_p99", 99.0)]
        .into_iter()
        .find(|(tag, _)| name.contains(tag))
        .map_or(50.0, |(_, p)| p)
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

fn traced(inputs: &Inputs, work: &Path, opts: Options) -> Result<Outcome, String> {
    let plain = socket::run(inputs, work, Phase::Entry, None)?;
    let tracer = Tracer::default();
    let run = socket::run(inputs, work, Phase::Entry, Some(&tracer))?;
    let layers = layers::run(inputs, work, &tracer)?;
    let mut failures = plain.failures.clone();
    failures.extend(run.failures.iter().cloned());
    failures.extend(check_store_replay(inputs, &layers)?);

    let trace_dir = work_root();
    let trace_file = trace_dir.join(format!(
        "trace-{}-seed{}.tsv",
        opts.workload.name(),
        opts.seed
    ));
    tracer.write_tsv(&trace_file).map_err(|e| e.to_string())?;

    let (metrics, table) = per_layer(inputs, &plain, &run, &layers, &tracer);
    let mut report = header(inputs, opts, work, std::slice::from_ref(&run));
    let _ = writeln!(
        report,
        "spans: {} written to {}",
        tracer.len(),
        trace_file.display()
    );
    report.push_str(&table);
    report.push_str(&metric_table(&metrics));
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted: run.attempted,
        failed: run.errors,
        metrics,
        report,
        failures,
        layers: Some(layers),
    })
}

/// The store replay's final documents must equal the uncompressed oracle
/// over the same ops.
fn check_store_replay(inputs: &Inputs, layers: &LayerRun) -> Result<Vec<String>, String> {
    let order = layers::entry_order(inputs);
    let mut failures = Vec::new();
    for (doc, xml) in layers.final_xml.iter().enumerate() {
        let ops: usize = order.iter().filter(|b| b.doc == doc).map(|b| b.len).sum();
        if *xml != socket::oracle_tree(inputs, doc, ops)?.to_xml() {
            failures.push(format!(
                "store replay: document {doc} differs from the uncompressed oracle"
            ));
        }
    }
    Ok(failures)
}

fn sum_ms(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / 1e3
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Per-layer metrics and the layer accounting table of a traced run.
fn per_layer(
    inputs: &Inputs,
    plain: &SocketRun,
    run: &SocketRun,
    l: &LayerRun,
    t: &Tracer,
) -> (Metrics, String) {
    let mut m = Metrics::default();
    let codec = t.durations_ms("server.codec");
    let ops = l.ops.max(1) as f64;
    let read_mostly = matches!(inputs.load, Load::ReadMostly { .. });

    // server
    m.0.push(stats::Metric {
        name: "server.codec_us".into(),
        unit: "us",
        value: median(&codec) * 1e3,
        samples: Some(codec.len()),
    });
    m.put(
        "server.req_bytes_per_op",
        "bytes/op",
        l.update_request_bytes as f64 / ops,
    );
    let queue_of: std::collections::HashMap<(usize, usize), f64> =
        l.queue_ms.iter().copied().collect();
    let edge: Vec<f64> = run
        .update_keys
        .iter()
        .zip(&run.update_ms)
        .filter_map(|(k, s)| queue_of.get(k).map(|q| s - q))
        .collect();
    m.pct("server.edge_ms_p50", "ms", &edge, 50.0);

    // queue
    let wait: Vec<f64> = l.queue_ms.iter().map(|(_, w)| *w).collect();
    m.pct("queue.wait_ms_p50", "ms", &wait, 50.0);
    m.pct("queue.wait_ms_p90", "ms", &wait, 90.0);
    let flushes = run.queue.flushes.max(1) as f64;
    m.put(
        "queue.batches_per_flush",
        "batches",
        run.queue.submitted as f64 / flushes,
    );
    m.put(
        "queue.jobs_per_flush",
        "jobs",
        run.queue.coalesced_jobs as f64 / flushes,
    );

    // wal
    m.pct(
        "wal.commit_ms_p50",
        "ms",
        &t.durations_ms("wal.commit"),
        50.0,
    );
    let loads = inputs.docs.len() as u64;
    let batches = run.acked_batches + (inputs.tail_batches_per_doc * inputs.docs.len()) as u64;
    m.put(
        "wal.syncs_per_batch",
        "syncs/batch",
        run.wal_syncs.saturating_sub(loads) as f64 / batches.max(1) as f64,
    );
    m.put("wal.bytes_per_op", "bytes/op", l.wal_bytes as f64 / ops);

    // durable
    m.pct(
        "durable.apply_ms_p50",
        "ms",
        &t.durations_ms("durable.apply_batch"),
        50.0,
    );
    m.put(
        "durable.checkpoint_ms",
        "ms",
        t.total_s("durable.checkpoint") * 1e3,
    );
    m.put(
        "durable.checkpoint_bytes",
        "bytes",
        l.checkpoint.bytes as f64,
    );
    m.put(
        "durable.open_ms",
        "ms",
        run.recovery.open_elapsed.as_secs_f64() * 1e3,
    );
    m.put(
        "durable.replay_ms",
        "ms",
        run.recovery.replay_elapsed.as_secs_f64() * 1e3,
    );
    m.put(
        "durable.replayed_records",
        "count",
        run.recovery.replayed as f64,
    );
    m.put("durable.replay_repairs", "count", run.replay_repairs as f64);
    m.pct("durable.first_touch_ms", "ms", &run.first_touch_ms, 50.0);

    // store
    let store_ms = t.durations_ms("store.apply");
    m.pct("store.apply_ms_p50", "ms", &store_ms, 50.0);
    m.pct("store.apply_ms_p90", "ms", &store_ms, 90.0);

    // update / isolate
    let bs = &l.batch_stats;
    let b_ops: usize = bs.iter().map(|s| s.ops).sum();
    let chunks: usize = bs.iter().map(|s| s.chunks).sum();
    let inlinings: usize = bs.iter().map(|s| s.isolation.inlinings).sum();
    let added: i64 = bs
        .iter()
        .map(|s| s.edges_after as i64 - s.edges_before as i64)
        .sum();
    m.put(
        "update.ops_per_chunk",
        "ops/chunk",
        ratio(b_ops as f64, chunks as f64),
    );
    m.put(
        "isolate.inlinings_per_op",
        "inlinings/op",
        ratio(inlinings as f64, b_ops as f64),
    );
    m.put(
        "update.edges_added_per_op",
        "edges/op",
        ratio(added as f64, b_ops as f64),
    );

    // repair
    let runs = l.repairs.len() as f64;
    let run_ms: Vec<f64> = l.repairs.iter().map(|(ms, _)| *ms).collect();
    let rs = |f: fn(&grammar_repair::repair::RepairStats) -> f64| {
        l.repairs.iter().map(|(_, s)| f(s)).sum::<f64>()
    };
    m.put("repair.runs", "count", runs);
    m.put("repair.busy_s", "s", t.total_s("repair.maintain"));
    m.0.push(stats::Metric {
        name: "repair.ms_per_run_p50".into(),
        unit: "ms",
        value: if run_ms.is_empty() {
            0.0
        } else {
            median(&run_ms)
        },
        samples: Some(run_ms.len()),
    });
    m.put(
        "repair.ms_per_run_max",
        "ms",
        run_ms.iter().copied().fold(0.0, f64::max),
    );
    m.put(
        "repair.rounds_per_run",
        "rounds",
        ratio(rs(|s| s.rounds as f64), runs),
    );
    m.put(
        "repair.replacements_per_run",
        "replacements",
        ratio(rs(|s| s.replacements as f64), runs),
    );
    m.put(
        "repair.inlinings_per_run",
        "inlinings",
        ratio(rs(|s| s.inlinings as f64), runs),
    );
    m.put("repair.blowup", "ratio", ratio(rs(|s| s.blowup()), runs));
    m.put(
        "repair.edges_out_per_in",
        "ratio",
        ratio(rs(|s| s.output_edges as f64), rs(|s| s.input_edges as f64)),
    );

    // query / navigate
    let eval = t.durations_ms("query.eval");
    m.pct("query.eval_ms_p50", "ms", &eval, 50.0);
    m.pct("query.eval_ms_p99", "ms", &eval, 99.0);
    m.put(
        "navigate.tables_hit_ratio",
        "ratio",
        ratio(l.nav_hits as f64, l.nav_calls as f64),
    );
    m.pct(
        "navigate.tables_build_ms",
        "ms",
        &t.durations_ms("navigate.tables_build"),
        50.0,
    );

    // serialize
    let edges: usize = l.final_edges.iter().sum();
    m.put(
        "serialize.bytes_per_edge",
        "bytes/edge",
        ratio(l.encoded_bytes as f64, edges as f64),
    );

    // loadgen
    let lag = if run.lag_ms.is_empty() {
        0.0
    } else {
        percentile(&run.lag_ms, 99.0)
    };
    m.0.push(stats::Metric {
        name: "loadgen.lag_ms_p99".into(),
        unit: "ms",
        value: lag,
        samples: Some(run.lag_ms.len()),
    });

    // Layer accounting over the entry set. The headline stream is the
    // write path, except on read_mostly where it is the query stream.
    let codec_s = sum_ms(&codec);
    let update_s = t.total_s("update.apply_batch");
    let repair_s = t.total_s("repair.maintain");
    let store_s = t.total_s("store.apply");
    let wal_s = t.total_s("wal.commit");
    let durable_s = t.total_s("durable.apply_batch");
    let query_s = t.total_s("query.eval");
    let build_s = t.total_s("navigate.tables_build");
    // The closed loop keeps the pipeline full, so its walls compare; the
    // paced writes of read_mostly leave the queue idle between them, so
    // there the queue's total is its summed submit-to-wait latency.
    let queue_total = if read_mostly {
        sum_ms(&wait)
    } else {
        l.queue_wall_s
    };
    let (wall, rows): (f64, Vec<(&str, f64, String)>) = if read_mostly {
        let socket = sum_ms(&run.query_ms);
        let codec_q = sum_ms(&codec[l.batches.min(codec.len())..]);
        (
            socket,
            vec![
                (
                    "server codec (query frames)",
                    codec_q,
                    format!("{} frames", codec.len() - l.batches.min(codec.len())),
                ),
                (
                    "query (query_str)",
                    query_s,
                    format!("{} queries", eval.len()),
                ),
                (
                    "navigate (tables rebuild)",
                    build_s,
                    format!("{} rebuilds", t.durations_ms("navigate.tables_build").len()),
                ),
            ],
        )
    } else {
        (
            run.wall_s,
            vec![
                ("server codec", codec_s, format!("{} frames", codec.len())),
                (
                    "queue (entry - durable)",
                    queue_total - durable_s,
                    format!("{} batches", l.batches),
                ),
                (
                    "durable (self)",
                    durable_s - wal_s - store_s,
                    format!("{} syncs", l.durable_syncs),
                ),
                (
                    "wal (commit)",
                    wal_s,
                    format!("{} syncs, {} bytes", l.wal_syncs, l.wal_bytes),
                ),
                (
                    "store (self)",
                    store_s - update_s - repair_s,
                    format!("{} batches", bs.len()),
                ),
                (
                    "update (apply_batch)",
                    update_s,
                    format!("{b_ops} ops, {chunks} chunks"),
                ),
                (
                    "repair (maintain)",
                    repair_s,
                    format!("{} runs", l.repairs.len()),
                ),
            ],
        )
    };
    let layer_sum: f64 = rows.iter().map(|r| r.1).sum();
    let residual = wall - layer_sum;
    let overhead = if read_mostly {
        ratio(sum_ms(&run.query_ms), sum_ms(&plain.query_ms))
    } else {
        ratio(run.wall_s, plain.wall_s)
    } - 1.0;
    m.put("trace.socket_s", "s", wall);
    m.put("trace.layer_sum_s", "s", layer_sum);
    m.put("trace.residual_s", "s", residual);
    m.put("trace.residual_pct", "%", 100.0 * ratio(residual, wall));
    m.put("trace.overhead_pct", "%", 100.0 * overhead);
    m.put("self.codec_s", "s", codec_s);
    m.put("self.queue_s", "s", queue_total - durable_s);
    m.put("self.durable_s", "s", durable_s - wal_s - store_s);
    m.put("self.wal_s", "s", wal_s);
    m.put("self.store_s", "s", store_s - update_s - repair_s);
    m.put("self.update_s", "s", update_s);
    m.put("self.repair_s", "s", repair_s);
    m.put("self.query_s", "s", query_s + build_s);

    let mut s = String::new();
    let stream = if read_mostly {
        "query stream (sum of query latencies)"
    } else {
        "write path (measured-phase wall)"
    };
    let _ = writeln!(
        s,
        "layer accounting over the entry set ({} batches, {} ops): socket {stream} = {wall:.4} s",
        l.batches, l.ops
    );
    let _ = writeln!(
        s,
        "{:<30} {:>10} {:>8}  counts",
        "layer", "self s", "% socket"
    );
    for (name, v, counts) in &rows {
        let _ = writeln!(
            s,
            "{name:<30} {v:>10.4} {:>8.1}  {counts}",
            100.0 * ratio(*v, wall)
        );
    }
    let _ = writeln!(
        s,
        "{:<30} {layer_sum:>10.4} {:>8.1}",
        "layer sum",
        100.0 * ratio(layer_sum, wall)
    );
    let _ = writeln!(
        s,
        "{:<30} {residual:>10.4} {:>8.1}  socket edge: wire, connection threads, ack hand-off",
        "residual (socket - sum)",
        100.0 * ratio(residual, wall),
    );
    let _ = writeln!(
        s,
        "tracing overhead: {:+.1} % ({} spans; traced vs untraced socket pass over the same inputs)",
        100.0 * overhead,
        t.len()
    );
    if !read_mostly {
        let p90 = percentile(&run.update_ms, 90.0);
        let q90 = percentile(&wait, 90.0);
        let share = ratio(repair_s + (queue_total - durable_s).max(0.0), wall);
        let _ = writeln!(
            s,
            "paper_mix check: repair self {:.1} % of socket wall; queue-entry wait p90 {q90:.1} ms vs socket ack p90 {p90:.1} ms; repair + queue = {:.1} % -> {}",
            100.0 * ratio(repair_s, wall),
            100.0 * share,
            if share >= 0.5 { "repair and the queue wait behind it account for most of the ack time" } else { "the time sits elsewhere (see rows above)" }
        );
    }
    (m, s)
}
