//! Command implementations of the `sltxml` command-line tool.
//!
//! The binary is a thin wrapper around [`run`]; every subcommand is a pure
//! function from parsed arguments to a textual report, which keeps the whole
//! surface unit-testable without spawning processes.
//!
//! ```text
//! sltxml compress   <in.xml>  -o <out.sltg> [--compressor grammar|tree] [--no-prune]
//! sltxml decompress <in.sltg> -o <out.xml>
//! sltxml stats      <in.xml | in.sltg>
//! sltxml query      <in.xml | in.sltg> <path expression> [--positions]
//! sltxml update     <in.sltg> -o <out.sltg> [--rename idx=label]... [--delete idx]...
//!                   [--insert idx=<xml>]... [--recompress]
//! sltxml store      <in.xml | in.sltg>... [--rename idx=label]... [--delete idx]...
//!                   [--insert idx=<xml>]... [--query <path>] [--wal <dir>] [--queue]
//! sltxml store      checkpoint --wal <dir>
//! sltxml store      recover    --wal <dir>
//! sltxml serve      --wal <dir> (--tcp <addr> | --sock <path>)
//!                   [--max-pending <ops>] [--fail-fast] [--for <secs>]
//! sltxml client     (--tcp <addr> | --sock <path>) [<in.xml>...]
//!                   [--rename idx=label]... [--delete idx]... [--insert idx=<xml>]...
//!                   [--query <path>] [--to-xml] [--checkpoint] [--stats]
//! sltxml sizes      <in.xml>
//! sltxml generate   <dataset> [--scale f] -o <out.xml>
//! ```
//!
//! `serve` puts the wire-protocol server (`grammar_repair::server`) in
//! front of the durable store in `--wal <dir>`: writes route through the
//! ingestion queue's background drainer, so concurrent clients share
//! group-committed fsyncs. `client` drives a session against it over the
//! same socket kinds.
//!
//! With `--wal <dir>` the store becomes durable: documents are loaded
//! through a write-ahead log in `<dir>`, `store checkpoint` folds the log
//! into an atomic snapshot, and `store recover` replays whatever a crash
//! left behind and reports what it found — including how many documents the
//! paged checkpoint left lazily undecoded and how open time split between
//! checkpoint adoption and log replay.
//!
//! Update options given to `store` apply to every loaded document. With
//! `--queue` (requires `--wal`) they are routed through the ingestion queue:
//! each document's batch is submitted, a single drain coalesces all of them
//! into one group-committed WAL record, and the report shows the coalescing.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::sync::Arc;

use dag_xml::Dag;
use datasets::Dataset;
use grammar_repair::navigate::{element_count, label_counts};
use grammar_repair::query::PathQuery;
use grammar_repair::queue::{BackpressurePolicy, IngestQueue};
use grammar_repair::{
    update::apply_update,
    Client, DomStore, DurableStore, GrammarRePair, GrammarRePairConfig, RecoveryReport, Server,
    ServerConfig,
};
use sltgrammar::{serialize, Grammar};
use succinct_xml::SuccinctDom;
use treerepair::TreeRePair;
use xmltree::binary::{from_binary, to_binary};
use xmltree::parse::parse_xml;
use xmltree::updates::UpdateOp;
use xmltree::XmlTree;

/// Error type of the CLI: a message for the user plus a process exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Message printed to stderr.
    pub message: String,
    /// Suggested process exit code.
    pub exit_code: i32,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: format!("{}\n\n{}", message.into(), USAGE),
            exit_code: 2,
        }
    }

    fn failure(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            exit_code: 1,
        }
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
sltxml — grammar-compressed XML toolbox (ICDE 2016 reproduction)

USAGE:
  sltxml compress   <in.xml>  -o <out.sltg> [--compressor grammar|tree] [--no-prune]
  sltxml decompress <in.sltg> -o <out.xml>
  sltxml stats      <in.xml | in.sltg>
  sltxml query      <in.xml | in.sltg> <path> [--positions]
  sltxml update     <in.sltg> -o <out.sltg> [--rename idx=label]... [--delete idx]...
                    [--insert idx=<xml>]... [--recompress]
  sltxml store      <in.xml | in.sltg>... [--rename idx=label]... [--delete idx]...
                    [--insert idx=<xml>]... [--query <path>] [--wal <dir>] [--queue]
  sltxml store      checkpoint --wal <dir>
  sltxml store      recover    --wal <dir>
  sltxml serve      --wal <dir> (--tcp <addr> | --sock <path>)
                    [--max-pending <ops>] [--fail-fast] [--for <secs>]
  sltxml client     (--tcp <addr> | --sock <path>) [<in.xml>...]
                    [--rename idx=label]... [--delete idx]... [--insert idx=<xml>]...
                    [--query <path>] [--to-xml] [--checkpoint] [--stats]
  sltxml sizes      <in.xml>
  sltxml generate   <dataset> [--scale f] -o <out.xml>
      datasets: exi-weblog, xmark, exi-telecomp, treebank, medline, ncbi
  idx is a 0-based preorder index of the binary-encoded tree; it must fit a
  usize (an index beyond that is a usage error, not an out-of-range failure).";

/// Entry point shared by the binary and the tests: dispatches on the first
/// argument and returns the report to print on stdout.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::usage("missing subcommand"));
    };
    let rest = &args[1..];
    match command.as_str() {
        "compress" => cmd_compress(rest),
        "decompress" => cmd_decompress(rest),
        "stats" => cmd_stats(rest),
        "query" => cmd_query(rest),
        "update" => cmd_update(rest),
        "store" => cmd_store(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "sizes" => cmd_sizes(rest),
        "generate" => cmd_generate(rest),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::usage(format!("unknown subcommand `{other}`"))),
    }
}

// ----- argument helpers -----

struct Parsed {
    positionals: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

/// Options that take a value.
const VALUE_OPTIONS: &[&str] = &[
    "-o",
    "--output",
    "--compressor",
    "--scale",
    "--rename",
    "--delete",
    "--insert",
    "--query",
    "--wal",
    "--tcp",
    "--sock",
    "--for",
    "--max-pending",
];

fn parse_args(args: &[String]) -> Result<Parsed, CliError> {
    let mut parsed = Parsed {
        positionals: Vec::new(),
        options: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if arg.starts_with('-') && arg.len() > 1 {
            if VALUE_OPTIONS.contains(&arg.as_str()) {
                let value = args.get(i + 1).cloned().ok_or_else(|| {
                    CliError::usage(format!("option `{arg}` requires a value"))
                })?;
                parsed.options.push((arg.clone(), Some(value)));
                i += 2;
            } else {
                parsed.options.push((arg.clone(), None));
                i += 1;
            }
        } else {
            parsed.positionals.push(arg.clone());
            i += 1;
        }
    }
    Ok(parsed)
}

impl Parsed {
    fn option(&self, names: &[&str]) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(n, _)| names.contains(&n.as_str()))
            .and_then(|(_, v)| v.as_deref())
    }

    fn flag(&self, name: &str) -> bool {
        self.options.iter().any(|(n, _)| n == name)
    }

    fn option_all(&self, name: &str) -> Vec<&str> {
        self.options
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    fn output(&self) -> Result<&str, CliError> {
        self.option(&["-o", "--output"])
            .ok_or_else(|| CliError::usage("missing `-o <output file>`"))
    }
}

// ----- input loading -----

/// A loaded input: either a plain document or an already-compressed grammar.
enum Input {
    Xml(XmlTree),
    Grammar(Grammar),
}

fn load_input(path: &str) -> Result<Input, CliError> {
    let bytes = fs::read(path)
        .map_err(|e| CliError::failure(format!("cannot read `{path}`: {e}")))?;
    if bytes.starts_with(serialize::MAGIC) {
        let g = serialize::decode(&bytes)
            .map_err(|e| CliError::failure(format!("cannot decode `{path}`: {e}")))?;
        return Ok(Input::Grammar(g));
    }
    let text = String::from_utf8(bytes)
        .map_err(|_| CliError::failure(format!("`{path}` is neither an SLTG file nor UTF-8 XML")))?;
    let xml = parse_xml(&text)
        .map_err(|e| CliError::failure(format!("cannot parse `{path}` as XML: {e}")))?;
    Ok(Input::Xml(xml))
}

fn load_grammar(path: &str) -> Result<Grammar, CliError> {
    match load_input(path)? {
        Input::Grammar(g) => Ok(g),
        Input::Xml(_) => Err(CliError::failure(format!(
            "`{path}` is an XML document; this command needs a compressed .sltg file"
        ))),
    }
}

fn to_grammar(input: Input) -> Grammar {
    match input {
        Input::Grammar(g) => g,
        Input::Xml(xml) => {
            let (g, _) = GrammarRePair::default().compress_xml(&xml);
            g
        }
    }
}

fn write_file(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)
                .map_err(|e| CliError::failure(format!("cannot create `{}`: {e}", parent.display())))?;
        }
    }
    fs::write(path, bytes).map_err(|e| CliError::failure(format!("cannot write `{path}`: {e}")))
}

// ----- subcommands -----

fn cmd_compress(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [input] = parsed.positionals.as_slice() else {
        return Err(CliError::usage("compress expects exactly one input file"));
    };
    let output = parsed.output()?;
    let Input::Xml(xml) = load_input(input)? else {
        return Err(CliError::failure(format!("`{input}` is already compressed")));
    };
    let config = GrammarRePairConfig {
        prune: !parsed.flag("--no-prune"),
        ..GrammarRePairConfig::default()
    };
    let compressor = parsed.option(&["--compressor"]).unwrap_or("grammar");
    let (grammar, label) = match compressor {
        "grammar" => {
            let (g, _) = GrammarRePair::new(config).compress_xml(&xml);
            (g, "GrammarRePair")
        }
        "tree" => {
            let (g, _) = TreeRePair::default().compress_xml(&xml);
            (g, "TreeRePair")
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown compressor `{other}` (expected `grammar` or `tree`)"
            )))
        }
    };
    let bytes = serialize::encode(&grammar);
    write_file(output, &bytes)?;
    let mut report = String::new();
    let input_edges = 2 * xml.node_count();
    writeln!(report, "compressor        {label}").unwrap();
    writeln!(report, "document edges    {}", xml.edge_count()).unwrap();
    writeln!(report, "binary tree edges {input_edges}").unwrap();
    writeln!(report, "grammar rules     {}", grammar.rule_count()).unwrap();
    writeln!(report, "grammar edges     {}", grammar.edge_count()).unwrap();
    writeln!(
        report,
        "compression ratio {:.2} %",
        100.0 * grammar.edge_count() as f64 / input_edges.max(1) as f64
    )
    .unwrap();
    writeln!(report, "output bytes      {}", bytes.len()).unwrap();
    writeln!(report, "wrote {output}").unwrap();
    Ok(report)
}

fn cmd_decompress(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [input] = parsed.positionals.as_slice() else {
        return Err(CliError::usage("decompress expects exactly one input file"));
    };
    let output = parsed.output()?;
    let grammar = load_grammar(input)?;
    let bin = sltgrammar::derive::val(&grammar)
        .map_err(|e| CliError::failure(format!("cannot materialize the document: {e}")))?;
    let xml = from_binary(&bin, &grammar.symbols)
        .map_err(|e| CliError::failure(format!("grammar does not encode a document: {e}")))?;
    write_file(output, xml.to_xml().as_bytes())?;
    Ok(format!(
        "decompressed {} grammar edges into {} elements\nwrote {output}\n",
        grammar.edge_count(),
        xml.node_count()
    ))
}

fn cmd_stats(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [input] = parsed.positionals.as_slice() else {
        return Err(CliError::usage("stats expects exactly one input file"));
    };
    let mut report = String::new();
    match load_input(input)? {
        Input::Xml(xml) => {
            writeln!(report, "kind              XML document").unwrap();
            writeln!(report, "elements          {}", xml.node_count()).unwrap();
            writeln!(report, "edges             {}", xml.edge_count()).unwrap();
            writeln!(report, "depth             {}", xml.depth()).unwrap();
            writeln!(report, "distinct labels   {}", xml.labels().len()).unwrap();
        }
        Input::Grammar(g) => {
            writeln!(report, "kind              SLCF grammar").unwrap();
            report.push_str(&sltgrammar::stats::grammar_stats(&g).report());
            writeln!(report, "encoded bytes     {}", serialize::encoded_size(&g)).unwrap();
            writeln!(report, "document elements {}", element_count(&g)).unwrap();
            let mut labels: Vec<(String, u128)> = label_counts(&g)
                .into_iter()
                .filter(|(name, _)| name != sltgrammar::NULL_SYMBOL_NAME)
                .collect();
            labels.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            writeln!(report, "top labels:").unwrap();
            for (name, count) in labels.into_iter().take(10) {
                writeln!(report, "  {name:<20} {count}").unwrap();
            }
        }
    }
    Ok(report)
}

fn cmd_query(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [input, path] = parsed.positionals.as_slice() else {
        return Err(CliError::usage("query expects an input file and a path expression"));
    };
    let query = PathQuery::parse(path).map_err(|e| CliError::failure(e.to_string()))?;
    let grammar = to_grammar(load_input(input)?);
    let count = query.count(&grammar);
    let mut report = format!("query             {path}\nmatches           {count}\n");
    if parsed.flag("--positions") {
        let matches = query.evaluate(&grammar);
        for (pos, label) in matches.positions.iter().zip(matches.labels.iter()) {
            writeln!(report, "  element #{pos:<10} <{label}>").unwrap();
        }
    }
    Ok(report)
}

fn cmd_update(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [input] = parsed.positionals.as_slice() else {
        return Err(CliError::usage("update expects exactly one input file"));
    };
    let output = parsed.output()?;
    let ops = update_ops(&parsed)?;
    if ops.is_empty() {
        return Err(CliError::usage(
            "update needs at least one --rename, --insert or --delete",
        ));
    }
    let mut grammar = load_grammar(input)?;
    let edges_before = grammar.edge_count();
    for op in &ops {
        apply_update(&mut grammar, op).map_err(|e| CliError::failure(e.to_string()))?;
    }
    let edges_updated = grammar.edge_count();
    let mut report = String::new();
    writeln!(report, "updates applied   {}", ops.len()).unwrap();
    writeln!(report, "edges before      {edges_before}").unwrap();
    writeln!(report, "edges after       {edges_updated}").unwrap();
    if parsed.flag("--recompress") {
        let stats = GrammarRePair::default().recompress(&mut grammar);
        writeln!(report, "recompressed to   {} edges", stats.output_edges).unwrap();
    }
    write_file(output, &serialize::encode(&grammar))?;
    writeln!(report, "wrote {output}").unwrap();
    Ok(report)
}

/// A store backing for `sltxml store`: plain in-memory, or write-ahead
/// logged into a `--wal` directory.
enum StoreBacking {
    Plain(DomStore),
    Durable(Arc<DurableStore>, RecoveryReport),
}

impl StoreBacking {
    fn dom(&self) -> &DomStore {
        match self {
            StoreBacking::Plain(s) => s,
            StoreBacking::Durable(s, _) => s.dom(),
        }
    }

    fn load(&self, input: Input) -> grammar_repair::Result<grammar_repair::DocId> {
        match (self, input) {
            (StoreBacking::Plain(s), Input::Xml(xml)) => s.load_xml(&xml),
            (StoreBacking::Plain(s), Input::Grammar(g)) => s.load_grammar(g),
            (StoreBacking::Durable(s, _), Input::Xml(xml)) => s.load_xml(&xml),
            (StoreBacking::Durable(s, _), Input::Grammar(g)) => s.load_grammar(g),
        }
    }
}

fn open_wal_dir(dir: &str) -> Result<(DurableStore, RecoveryReport), CliError> {
    DurableStore::open(dir)
        .map_err(|e| CliError::failure(format!("cannot open WAL directory `{dir}`: {e}")))
}

fn recovery_lines(report: &mut String, recovery: &RecoveryReport) {
    writeln!(report, "recovered to lsn   {}", recovery.last_lsn).unwrap();
    writeln!(
        report,
        "checkpoint         lsn {}, {} documents",
        recovery.checkpoint_lsn, recovery.checkpoint_docs
    )
    .unwrap();
    writeln!(
        report,
        "lazy documents     {} (decoded on first touch)",
        recovery.lazy_docs
    )
    .unwrap();
    writeln!(report, "records replayed   {}", recovery.replayed).unwrap();
    writeln!(
        report,
        "open time          {:?} (checkpoint {:?} + replay {:?})",
        recovery.open_elapsed, recovery.checkpoint_elapsed, recovery.replay_elapsed
    )
    .unwrap();
    if recovery.torn_tail {
        writeln!(
            report,
            "torn tail          truncated {} bytes of an unfinished record",
            recovery.truncated_bytes
        )
        .unwrap();
    } else {
        writeln!(report, "torn tail          none").unwrap();
    }
}

fn cmd_store_recover(parsed: &Parsed) -> Result<String, CliError> {
    let Some(dir) = parsed.option(&["--wal"]) else {
        return Err(CliError::usage("store recover needs `--wal <dir>`"));
    };
    let (store, recovery) = open_wal_dir(dir)?;
    let mut report = String::new();
    recovery_lines(&mut report, &recovery);
    writeln!(report, "documents          {}", store.len()).unwrap();
    for id in store.doc_ids() {
        let grammar = store
            .grammar(id)
            .map_err(|e| CliError::failure(e.to_string()))?;
        writeln!(
            report,
            "  doc #{:<4} {:>10} edges {:>12} elements",
            id.slot(),
            store.edge_count(id).map_err(|e| CliError::failure(e.to_string()))?,
            element_count(&grammar),
        )
        .unwrap();
    }
    Ok(report)
}

fn cmd_store_checkpoint(parsed: &Parsed) -> Result<String, CliError> {
    let Some(dir) = parsed.option(&["--wal"]) else {
        return Err(CliError::usage("store checkpoint needs `--wal <dir>`"));
    };
    let (store, recovery) = open_wal_dir(dir)?;
    let checkpoint = store
        .checkpoint()
        .map_err(|e| CliError::failure(format!("checkpoint failed: {e}")))?;
    let mut report = String::new();
    recovery_lines(&mut report, &recovery);
    writeln!(report, "{checkpoint}").unwrap();
    Ok(report)
}

/// Parses the `--rename/--insert/--delete` options shared by `sltxml update`,
/// `store` and `client` into one batch: renames, then inserts, then deletes.
fn update_ops(parsed: &Parsed) -> Result<Vec<UpdateOp>, CliError> {
    let mut ops = Vec::new();
    for spec in parsed.option_all("--rename") {
        let (idx, label) = spec.split_once('=').ok_or_else(|| {
            CliError::usage(format!("--rename expects `index=label`, got `{spec}`"))
        })?;
        let target: usize = idx
            .parse()
            .map_err(|_| CliError::usage(format!("invalid index `{idx}`")))?;
        ops.push(UpdateOp::Rename {
            target,
            label: label.to_string(),
        });
    }
    for spec in parsed.option_all("--insert") {
        let (idx, fragment) = spec.split_once('=').ok_or_else(|| {
            CliError::usage(format!("--insert expects `index=<xml>`, got `{spec}`"))
        })?;
        let target: usize = idx
            .parse()
            .map_err(|_| CliError::usage(format!("invalid index `{idx}`")))?;
        let fragment = parse_xml(fragment)
            .map_err(|e| CliError::failure(format!("invalid fragment: {e}")))?;
        ops.push(UpdateOp::InsertBefore { target, fragment });
    }
    for spec in parsed.option_all("--delete") {
        let target: usize = spec
            .parse()
            .map_err(|_| CliError::usage(format!("invalid index `{spec}`")))?;
        ops.push(UpdateOp::Delete { target });
    }
    Ok(ops)
}

fn cmd_store(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    match parsed.positionals.first().map(String::as_str) {
        Some("recover") if parsed.positionals.len() == 1 => return cmd_store_recover(&parsed),
        Some("checkpoint") if parsed.positionals.len() == 1 => {
            return cmd_store_checkpoint(&parsed)
        }
        _ => {}
    }
    if parsed.positionals.is_empty() {
        return Err(CliError::usage("store expects at least one input file"));
    }
    if parsed.flag("--queue") && parsed.option(&["--wal"]).is_none() {
        return Err(CliError::usage(
            "--queue fronts the durable store and needs `--wal <dir>`",
        ));
    }
    let ops = update_ops(&parsed)?;
    let backing = match parsed.option(&["--wal"]) {
        Some(dir) => {
            let (store, recovery) = open_wal_dir(dir)?;
            StoreBacking::Durable(Arc::new(store), recovery)
        }
        None => StoreBacking::Plain(DomStore::new()),
    };
    let mut report = String::new();
    writeln!(
        report,
        "{:<6}{:<28}{:>10}{:>12}",
        "doc", "input", "edges", "elements"
    )
    .unwrap();
    let mut ids = Vec::new();
    for path in &parsed.positionals {
        let id = backing
            .load(load_input(path)?)
            .map_err(|e| CliError::failure(format!("cannot load `{path}`: {e}")))?;
        let store = backing.dom();
        let short = Path::new(path)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone());
        writeln!(
            report,
            "#{:<5}{:<28}{:>10}{:>12}",
            id.slot(),
            short,
            store.edge_count(id).unwrap(),
            element_count(&store.grammar(id).unwrap()),
        )
        .unwrap();
        ids.push(id);
    }
    if !ops.is_empty() {
        writeln!(report).unwrap();
        if parsed.flag("--queue") {
            let StoreBacking::Durable(durable, _) = &backing else {
                unreachable!("--queue without --wal is rejected above");
            };
            let queue = IngestQueue::new(Arc::clone(durable));
            let tickets: Vec<_> = ids
                .iter()
                .map(|&id| {
                    queue
                        .submit(id, ops.clone())
                        .expect("unbounded queue accepts every submission")
                })
                .collect();
            let pending = queue.stats();
            writeln!(
                report,
                "queue pending      {} ops across {} batches, oldest {}",
                pending.pending_ops,
                tickets.len(),
                pending
                    .oldest_pending_age
                    .map(|age| format!("{age:.2?}"))
                    .unwrap_or_else(|| "-".to_string()),
            )
            .unwrap();
            let flush = queue.flush();
            for ticket in tickets {
                queue
                    .wait(ticket)
                    .map_err(|e| CliError::failure(format!("queued update failed: {e}")))?;
            }
            writeln!(
                report,
                "ingest queue       {} batches coalesced into {} jobs, one group commit",
                flush.batches, flush.jobs
            )
            .unwrap();
        } else {
            for &id in &ids {
                match &backing {
                    StoreBacking::Plain(s) => s.apply_batch(id, &ops),
                    StoreBacking::Durable(s, _) => s.apply_batch(id, &ops),
                }
                .map_err(|e| {
                    CliError::failure(format!("update failed on doc #{}: {e}", id.slot()))
                })?;
            }
        }
        writeln!(
            report,
            "updates            {} ops applied to each of {} documents",
            ops.len(),
            ids.len()
        )
        .unwrap();
    }
    let store = backing.dom();
    let stats = store.symbol_stats();
    writeln!(report).unwrap();
    writeln!(report, "documents          {}", store.len()).unwrap();
    writeln!(report, "shared alphabet    {} symbols", stats.master_symbols).unwrap();
    writeln!(
        report,
        "label tables       {} B resident ({} B shared once + {} B private)",
        stats.resident_bytes(),
        stats.shared_bytes,
        stats.private_bytes
    )
    .unwrap();
    writeln!(
        report,
        "per-document would be {} B ({:.2}x)",
        stats.unshared_bytes,
        stats.unshared_bytes as f64 / stats.resident_bytes().max(1) as f64
    )
    .unwrap();
    if let StoreBacking::Durable(durable, recovery) = &backing {
        writeln!(report).unwrap();
        recovery_lines(&mut report, recovery);
        writeln!(report, "durable lsn        {}", durable.durable_lsn()).unwrap();
    }
    if let Some(path) = parsed.option(&["--query"]) {
        let query = PathQuery::parse(path).map_err(|e| CliError::failure(e.to_string()))?;
        writeln!(report).unwrap();
        writeln!(report, "query {path} across the store:").unwrap();
        for &id in &ids {
            let count = store
                .query_count(id, &query)
                .map_err(|e| CliError::failure(e.to_string()))?;
            writeln!(report, "  doc #{:<4} {count} matches", id.slot()).unwrap();
        }
    }
    Ok(report)
}

/// `sltxml serve`: put a wire-protocol server in front of a durable store.
///
/// Runs until stdin reaches EOF (ctrl-D), or for `--for <secs>` when
/// given (scripting and tests). `--max-pending <ops>` arms the queue's
/// high-watermark; with `--fail-fast` overload is answered with
/// backpressure errors instead of blocking the connection.
fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    if !parsed.positionals.is_empty() {
        return Err(CliError::usage("serve takes no positional arguments"));
    }
    let Some(dir) = parsed.option(&["--wal"]) else {
        return Err(CliError::usage("serve needs `--wal <dir>`"));
    };
    let mut config = ServerConfig::default();
    if let Some(spec) = parsed.option(&["--max-pending"]) {
        let ops: usize = spec
            .parse()
            .map_err(|_| CliError::usage(format!("invalid --max-pending `{spec}`")))?;
        config.queue.high_watermark_ops = Some(ops);
    }
    if parsed.flag("--fail-fast") {
        config.queue.backpressure = BackpressurePolicy::Fail;
    }
    let (store, recovery) = open_wal_dir(dir)?;
    let store = Arc::new(store);
    let server = match (parsed.option(&["--tcp"]), parsed.option(&["--sock"])) {
        (Some(addr), None) => {
            let server = Server::serve_tcp(store, addr, config)
                .map_err(|e| CliError::failure(format!("cannot listen on tcp `{addr}`: {e}")))?;
            let bound = server
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|| addr.to_string());
            println!("listening on tcp {bound}");
            server
        }
        #[cfg(unix)]
        (None, Some(path)) => {
            let server = Server::serve_unix(store, Path::new(path), config).map_err(|e| {
                CliError::failure(format!("cannot listen on unix socket `{path}`: {e}"))
            })?;
            println!("listening on unix socket {path}");
            server
        }
        #[cfg(not(unix))]
        (None, Some(_)) => {
            return Err(CliError::failure(
                "unix sockets are not available on this platform",
            ));
        }
        _ => {
            return Err(CliError::usage(
                "serve needs exactly one of `--tcp <addr>` or `--sock <path>`",
            ));
        }
    };
    if let Some(spec) = parsed.option(&["--for"]) {
        let secs: f64 = spec
            .parse()
            .map_err(|_| CliError::usage(format!("invalid --for `{spec}`")))?;
        std::thread::sleep(std::time::Duration::from_secs_f64(secs));
    } else {
        println!("reading stdin; EOF (ctrl-D) shuts the server down");
        let mut sink = [0u8; 4096];
        let mut stdin = std::io::stdin().lock();
        loop {
            match std::io::Read::read(&mut stdin, &mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }
    let stats = server.stats();
    drop(server); // shutdown: join handlers, final queue drain
    let mut report = String::new();
    recovery_lines(&mut report, &recovery);
    writeln!(
        report,
        "served             {} connections, {} requests ({} protocol errors)",
        stats.connections, stats.requests, stats.protocol_errors
    )
    .unwrap();
    Ok(report)
}

fn client_connect(parsed: &Parsed) -> Result<Client, CliError> {
    match (parsed.option(&["--tcp"]), parsed.option(&["--sock"])) {
        (Some(addr), None) => Ok(Client::connect_tcp(addr)),
        #[cfg(unix)]
        (None, Some(path)) => Ok(Client::connect_unix(path)),
        #[cfg(not(unix))]
        (None, Some(_)) => Err(CliError::failure(
            "unix sockets are not available on this platform",
        )),
        _ => Err(CliError::usage(
            "client needs exactly one of `--tcp <addr>` or `--sock <path>`",
        )),
    }
}

/// `sltxml client`: a session against a running `sltxml serve`. Loads each
/// XML input, applies the update options to every loaded document (each
/// `applied` line is a durable, group-committed write by the time it
/// prints), then runs the optional query/serialize/checkpoint/stats steps.
fn cmd_client(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    if parsed.positionals.is_empty() && !parsed.flag("--stats") && !parsed.flag("--checkpoint") {
        return Err(CliError::usage(
            "client expects XML inputs and/or `--stats` / `--checkpoint`",
        ));
    }
    let client = client_connect(&parsed)?;
    let ops = update_ops(&parsed)?;
    let mut report = String::new();
    let mut ids = Vec::new();
    for path in &parsed.positionals {
        let Input::Xml(xml) = load_input(path)? else {
            return Err(CliError::failure(format!(
                "`{path}` is already compressed; the wire client sends plain XML"
            )));
        };
        let id = client
            .load_xml(&xml)
            .map_err(|e| CliError::failure(format!("load of `{path}` failed: {e}")))?;
        let short = Path::new(path)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone());
        writeln!(report, "loaded  {short:<28} doc #{}", id.slot()).unwrap();
        ids.push(id);
    }
    if !ops.is_empty() {
        for &id in &ids {
            let stats = client.apply_batch(id, ops.clone()).map_err(|e| {
                CliError::failure(format!("update failed on doc #{}: {e}", id.slot()))
            })?;
            writeln!(
                report,
                "applied doc #{:<4} {} ops, {} -> {} edges (durable on ack)",
                id.slot(),
                stats.ops,
                stats.edges_before,
                stats.edges_after
            )
            .unwrap();
        }
    }
    if let Some(path) = parsed.option(&["--query"]) {
        for &id in &ids {
            let matches = client
                .query(id, path)
                .map_err(|e| CliError::failure(e.to_string()))?;
            writeln!(
                report,
                "query   doc #{:<4} {} matches for {path}",
                id.slot(),
                matches.len()
            )
            .unwrap();
        }
    }
    if parsed.flag("--to-xml") {
        for &id in &ids {
            let xml = client
                .to_xml(id)
                .map_err(|e| CliError::failure(e.to_string()))?;
            writeln!(report, "{xml}").unwrap();
        }
    }
    if parsed.flag("--checkpoint") {
        let cp = client
            .checkpoint()
            .map_err(|e| CliError::failure(format!("checkpoint failed: {e}")))?;
        writeln!(
            report,
            "checkpoint         lsn {} | {} documents | {} B{}",
            cp.last_lsn,
            cp.documents,
            cp.bytes,
            if cp.log_truncated { " | log truncated" } else { "" }
        )
        .unwrap();
    }
    if parsed.flag("--stats") {
        let s = client
            .stats()
            .map_err(|e| CliError::failure(format!("stats failed: {e}")))?;
        writeln!(
            report,
            "server             {} documents | durable lsn {} | {} wal syncs",
            s.documents, s.durable_lsn, s.wal_syncs
        )
        .unwrap();
        writeln!(
            report,
            "queue              {} submitted | {} flushes | {} coalesced jobs | {} ops pending",
            s.submitted, s.flushes, s.coalesced_jobs, s.pending_ops
        )
        .unwrap();
        writeln!(
            report,
            "connections        {} total | {} requests served",
            s.connections, s.requests
        )
        .unwrap();
    }
    Ok(report)
}

fn cmd_sizes(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [input] = parsed.positionals.as_slice() else {
        return Err(CliError::usage("sizes expects exactly one XML input file"));
    };
    let Input::Xml(xml) = load_input(input)? else {
        return Err(CliError::failure("sizes expects an uncompressed XML document"));
    };
    let n = xml.node_count();

    // Pointer DOM estimate: label pointer + parent + child vector per node.
    let pointer_bytes: usize = xml
        .preorder()
        .iter()
        .map(|&v| 8 + 24 + xml.children(v).len() * 4 + xml.label(v).len())
        .sum();

    let succinct = SuccinctDom::build(&xml);

    let mut symbols = sltgrammar::SymbolTable::new();
    let bin = to_binary(&xml, &mut symbols)
        .map_err(|e| CliError::failure(format!("binary encoding failed: {e}")))?;
    let dag = Dag::build(&bin, &symbols);

    let (tree_grammar, _) = TreeRePair::default().compress_binary(symbols.clone(), bin.clone());
    let (mut grammar, _) = GrammarRePair::default().compress_xml(&xml);
    grammar.compact();

    let mut report = String::new();
    writeln!(report, "document: {n} elements, {} edges", xml.edge_count()).unwrap();
    writeln!(report, "{:<28}{:>14}{:>12}", "representation", "size", "per node").unwrap();
    let mut row = |name: &str, bytes: usize| {
        writeln!(
            report,
            "{:<28}{:>12} B{:>10.2} B",
            name,
            bytes,
            bytes as f64 / n as f64
        )
        .unwrap();
    };
    row("pointer DOM (estimate)", pointer_bytes);
    row("succinct DOM (BP + labels)", succinct.size_bytes());
    row("minimal DAG", dag.size_bytes());
    row("TreeRePair grammar (.sltg)", serialize::encoded_size(&tree_grammar));
    row("GrammarRePair grammar (.sltg)", serialize::encoded_size(&grammar));
    writeln!(report).unwrap();
    writeln!(report, "{:<28}{:>14}", "representation", "edges").unwrap();
    let mut row = |name: &str, edges: usize| {
        writeln!(report, "{:<28}{:>14}", name, edges).unwrap();
    };
    row("binary tree", 2 * n);
    row("minimal DAG", dag.edge_count());
    row("TreeRePair grammar", tree_grammar.edge_count());
    row("GrammarRePair grammar", grammar.edge_count());
    Ok(report)
}

fn cmd_generate(args: &[String]) -> Result<String, CliError> {
    let parsed = parse_args(args)?;
    let [name] = parsed.positionals.as_slice() else {
        return Err(CliError::usage("generate expects exactly one dataset name"));
    };
    let output = parsed.output()?;
    let scale: f64 = parsed
        .option(&["--scale"])
        .unwrap_or("0.2")
        .parse()
        .map_err(|_| CliError::usage("--scale expects a number"))?;
    if scale <= 0.0 || scale > 100.0 || scale.is_nan() {
        return Err(CliError::usage("--scale must be in (0, 100]"));
    }
    let dataset = match name.to_lowercase().as_str() {
        "exi-weblog" | "weblog" | "ew" => Dataset::ExiWeblog,
        "xmark" | "xm" => Dataset::XMark,
        "exi-telecomp" | "telecomp" | "et" => Dataset::ExiTelecomp,
        "treebank" | "tb" => Dataset::Treebank,
        "medline" | "md" => Dataset::Medline,
        "ncbi" | "nc" => Dataset::Ncbi,
        other => return Err(CliError::usage(format!("unknown dataset `{other}`"))),
    };
    let xml = dataset.generate(scale);
    write_file(output, xml.to_xml().as_bytes())?;
    Ok(format!(
        "generated {} ({} elements, depth {})\nwrote {output}\n",
        dataset.name(),
        xml.node_count(),
        xml.depth()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join("sltxml-cli-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    const DOC: &str = "<catalog><item><name/><price/></item><item><name/><price/></item>\
                       <item><name/><price/></item><item><name/><price/></item></catalog>";

    fn write_doc(name: &str) -> String {
        let path = temp_path(name);
        fs::write(&path, DOC).unwrap();
        path
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run(&args(&["help"])).unwrap().contains("USAGE"));
        let err = run(&args(&["frobnicate"])).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("unknown subcommand"));
        assert!(run(&[]).is_err());
    }

    #[test]
    fn compress_stats_decompress_roundtrip() {
        let input = write_doc("roundtrip.xml");
        let compressed = temp_path("roundtrip.sltg");
        let restored = temp_path("restored.xml");

        let report = run(&args(&["compress", &input, "-o", &compressed])).unwrap();
        assert!(report.contains("GrammarRePair"));
        assert!(report.contains("grammar edges"));

        let report = run(&args(&["stats", &compressed])).unwrap();
        assert!(report.contains("SLCF grammar"));
        assert!(report.contains("document elements 13"));

        let report = run(&args(&["decompress", &compressed, "-o", &restored])).unwrap();
        assert!(report.contains("13 elements"));
        let text = fs::read_to_string(&restored).unwrap();
        assert_eq!(text, DOC.replace("  ", "").replace('\n', ""));
    }

    #[test]
    fn compress_with_treerepair_backend() {
        let input = write_doc("tree-backend.xml");
        let compressed = temp_path("tree-backend.sltg");
        let report = run(&args(&[
            "compress",
            &input,
            "-o",
            &compressed,
            "--compressor",
            "tree",
        ]))
        .unwrap();
        assert!(report.contains("TreeRePair"));
        let err = run(&args(&[
            "compress",
            &input,
            "-o",
            &compressed,
            "--compressor",
            "zip",
        ]))
        .unwrap_err();
        assert!(err.message.contains("unknown compressor"));
    }

    #[test]
    fn stats_on_plain_xml() {
        let input = write_doc("stats.xml");
        let report = run(&args(&["stats", &input])).unwrap();
        assert!(report.contains("XML document"));
        assert!(report.contains("elements          13"));
    }

    #[test]
    fn query_counts_and_positions() {
        let input = write_doc("query.xml");
        let report = run(&args(&["query", &input, "//item/name"])).unwrap();
        assert!(report.contains("matches           4"));
        let report = run(&args(&["query", &input, "//price", "--positions"])).unwrap();
        assert!(report.contains("matches           4"));
        assert!(report.contains("<price>"));
        let err = run(&args(&["query", &input, "not-a-path"])).unwrap_err();
        assert!(err.message.contains("absolute"));
    }

    #[test]
    fn update_then_query_sees_the_change() {
        let input = write_doc("update.xml");
        let compressed = temp_path("update.sltg");
        let updated = temp_path("updated.sltg");
        run(&args(&["compress", &input, "-o", &compressed])).unwrap();

        // Element at binary preorder index 1 is the first <item>.
        let report = run(&args(&[
            "update",
            &compressed,
            "-o",
            &updated,
            "--rename",
            "1=offer",
            "--recompress",
        ]))
        .unwrap();
        assert!(report.contains("updates applied   1"));
        assert!(report.contains("recompressed"));

        let report = run(&args(&["query", &updated, "//offer"])).unwrap();
        assert!(report.contains("matches           1"));
        let report = run(&args(&["query", &updated, "//item"])).unwrap();
        assert!(report.contains("matches           3"));

        // No-op update is rejected.
        let err = run(&args(&["update", &updated, "-o", &updated])).unwrap_err();
        assert!(err.message.contains("at least one"));
    }

    #[test]
    fn store_loads_many_documents_and_reports_sharing() {
        let a = write_doc("store-a.xml");
        let b_path = temp_path("store-b.xml");
        fs::write(
            &b_path,
            "<catalog><item><name/><price/></item><extra/></catalog>",
        )
        .unwrap();
        let c_compressed = temp_path("store-c.sltg");
        run(&args(&["compress", &a, "-o", &c_compressed])).unwrap();

        let report = run(&args(&[
            "store",
            &a,
            &b_path,
            &c_compressed,
            "--query",
            "//item/name",
        ]))
        .unwrap();
        assert!(report.contains("documents          3"), "{report}");
        assert!(report.contains("shared alphabet"), "{report}");
        assert!(report.contains("doc #0    4 matches"), "{report}");
        assert!(report.contains("doc #1    1 matches"), "{report}");
        assert!(report.contains("doc #2    4 matches"), "{report}");
        // Sharing must beat per-document tables on this similar corpus.
        let factor: f64 = report
            .lines()
            .find(|l| l.contains("per-document would be"))
            .and_then(|l| l.split('(').nth(1))
            .and_then(|s| s.trim_end_matches(['x', ')']).parse().ok())
            .expect("factor line present");
        assert!(factor > 1.0, "expected sharing to win, got {factor}x in\n{report}");

        let err = run(&args(&["store"])).unwrap_err();
        assert!(err.message.contains("at least one"));
    }

    #[test]
    fn store_with_wal_loads_checkpoints_and_recovers() {
        let a = write_doc("wal-a.xml");
        let b_path = temp_path("wal-b.xml");
        fs::write(
            &b_path,
            "<catalog><item><name/><price/></item><extra/></catalog>",
        )
        .unwrap();
        let dir = temp_path("wal-dir");
        let _ = fs::remove_dir_all(&dir);

        // Load two documents through the log.
        let report = run(&args(&["store", &a, &b_path, "--wal", &dir])).unwrap();
        assert!(report.contains("documents          2"), "{report}");
        assert!(report.contains("durable lsn        2"), "{report}");
        assert!(report.contains("torn tail          none"), "{report}");
        assert!(report.contains("open time          "), "{report}");

        // A fresh process recovers both documents purely from the log.
        let report = run(&args(&["store", "recover", "--wal", &dir])).unwrap();
        assert!(report.contains("records replayed   2"), "{report}");
        assert!(report.contains("documents          2"), "{report}");

        // Checkpoint folds the log into a snapshot...
        let report = run(&args(&["store", "checkpoint", "--wal", &dir])).unwrap();
        assert!(report.contains("checkpoint at lsn 2: 2 docs"), "{report}");

        // ...after which recovery replays nothing and the paged checkpoint
        // leaves both documents undecoded until the report touches them.
        let report = run(&args(&["store", "recover", "--wal", &dir])).unwrap();
        assert!(report.contains("records replayed   0"), "{report}");
        assert!(report.contains("checkpoint         lsn 2, 2 documents"), "{report}");
        assert!(
            report.contains("lazy documents     2 (decoded on first touch)"),
            "{report}"
        );

        // A torn tail (half a record appended by a crashed writer) is
        // truncated and reported, not an error.
        let log = format!("{dir}/wal.log");
        let mut bytes = fs::read(&log).unwrap();
        bytes.extend_from_slice(&[42, 0, 0, 0, 1, 2, 3]); // length says 42, 3 payload bytes present
        fs::write(&log, &bytes).unwrap();
        let report = run(&args(&["store", "recover", "--wal", &dir])).unwrap();
        assert!(report.contains("torn tail          truncated 7 bytes"), "{report}");

        let err = run(&args(&["store", "recover"])).unwrap_err();
        assert!(err.message.contains("--wal"));
        let err = run(&args(&["store", "checkpoint"])).unwrap_err();
        assert!(err.message.contains("--wal"));
    }

    #[test]
    fn store_queue_coalesces_updates_into_one_record() {
        let a = write_doc("queue-a.xml");
        let b_path = write_doc("queue-b.xml");
        let dir = temp_path("queue-dir");
        let _ = fs::remove_dir_all(&dir);

        // The queue fronts the durable store only.
        let err = run(&args(&["store", &a, "--queue"])).unwrap_err();
        assert!(err.message.contains("--wal"), "{}", err.message);

        // Rename the first <item> of both documents through the queue: two
        // submitted batches drain as one coalesced group commit, and the
        // query afterwards sees the change.
        let report = run(&args(&[
            "store", &a, &b_path, "--wal", &dir, "--queue", "--rename", "1=offer", "--query",
            "//offer",
        ]))
        .unwrap();
        assert!(
            report.contains("ingest queue       2 batches coalesced into 2 jobs"),
            "{report}"
        );
        assert!(
            report.contains("queue pending      2 ops across 2 batches, oldest "),
            "{report}"
        );
        assert!(
            report.contains("updates            1 ops applied to each of 2 documents"),
            "{report}"
        );
        assert!(report.contains("doc #0    1 matches"), "{report}");
        assert!(report.contains("doc #1    1 matches"), "{report}");

        // The whole run logged three records: two loads plus ONE coalesced
        // ApplyMany for both renames — and a fresh recovery replays them.
        let report = run(&args(&["store", "recover", "--wal", &dir])).unwrap();
        assert!(report.contains("records replayed   3"), "{report}");

        // The direct (unqueued) path logs one record per document instead.
        let dir = temp_path("queue-direct-dir");
        let _ = fs::remove_dir_all(&dir);
        let report = run(&args(&[
            "store", &a, &b_path, "--wal", &dir, "--rename", "1=offer",
        ]))
        .unwrap();
        assert!(
            report.contains("updates            1 ops applied to each of 2 documents"),
            "{report}"
        );
        let report = run(&args(&["store", "recover", "--wal", &dir])).unwrap();
        assert!(report.contains("records replayed   4"), "{report}");
    }

    #[cfg(unix)]
    #[test]
    fn serve_and_client_roundtrip_over_a_unix_socket() {
        let a = write_doc("serve-a.xml");
        let dir = temp_path("serve-dir");
        let _ = fs::remove_dir_all(&dir);
        let sock = temp_path("serve.sock");
        let _ = fs::remove_file(&sock);

        let serve_args = args(&["serve", "--wal", &dir, "--sock", &sock, "--for", "1.5"]);
        let server = std::thread::spawn(move || run(&serve_args));
        for _ in 0..100 {
            if Path::new(&sock).exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }

        let report = run(&args(&[
            "client",
            "--sock",
            &sock,
            &a,
            "--rename",
            "1=offer",
            "--query",
            "//offer",
            "--checkpoint",
            "--stats",
        ]))
        .unwrap();
        assert!(report.contains("loaded"), "{report}");
        assert!(report.contains("applied doc #0"), "{report}");
        assert!(report.contains("1 matches for //offer"), "{report}");
        assert!(report.contains("checkpoint         lsn"), "{report}");
        assert!(report.contains("server             1 documents"), "{report}");

        let report = server.join().unwrap().unwrap();
        assert!(report.contains("1 connections"), "{report}");

        // The served session is durable: a fresh recovery sees the state.
        let report = run(&args(&["store", "recover", "--wal", &dir])).unwrap();
        assert!(report.contains("documents          1"), "{report}");

        // Endpoint validation.
        let err = run(&args(&["client", "--stats"])).unwrap_err();
        assert!(err.message.contains("exactly one of"), "{}", err.message);
        let err = run(&args(&["serve", "--sock", &sock])).unwrap_err();
        assert!(err.message.contains("--wal"), "{}", err.message);
    }

    #[test]
    fn sizes_lists_all_representations() {
        let input = write_doc("sizes.xml");
        let report = run(&args(&["sizes", &input])).unwrap();
        for needle in [
            "pointer DOM",
            "succinct DOM",
            "minimal DAG",
            "TreeRePair grammar",
            "GrammarRePair grammar",
        ] {
            assert!(report.contains(needle), "missing `{needle}` in:\n{report}");
        }
    }

    #[test]
    fn generate_produces_parseable_datasets() {
        let out = temp_path("generated.xml");
        let report = run(&args(&["generate", "xmark", "--scale", "0.05", "-o", &out])).unwrap();
        assert!(report.contains("XMark"));
        let text = fs::read_to_string(&out).unwrap();
        assert!(parse_xml(&text).is_ok());
        let err = run(&args(&["generate", "unknown", "-o", &out])).unwrap_err();
        assert!(err.message.contains("unknown dataset"));
    }

    #[test]
    fn missing_files_and_outputs_are_reported() {
        let err = run(&args(&["stats", "/nonexistent/file.xml"])).unwrap_err();
        assert_eq!(err.exit_code, 1);
        assert!(err.message.contains("cannot read"));
        let input = write_doc("no-output.xml");
        let err = run(&args(&["compress", &input])).unwrap_err();
        assert!(err.message.contains("-o"));
    }
}
