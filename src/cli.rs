//! The `xvu` command-line interface.
//!
//! A thin, dependency-free front end over the library for shell use:
//!
//! ```text
//! xvu validate  --dtd schema.dtd --doc doc.xml
//! xvu view      --dtd schema.dtd --ann view.ann --doc doc.xml
//! xvu invert    --dtd schema.dtd --ann view.ann --view view.xml
//! xvu propagate --dtd schema.dtd --ann view.ann --doc doc.xml --update edit.script
//!               [--update more.script ...] [--selector nop|first|type] [--jobs N]
//! ```
//!
//! File formats are sniffed from content: DTDs may be `<!ELEMENT …>`
//! declarations or the `label -> regex` rule syntax; documents may be XML
//! (`<…>`, with optional `xvu:id` attributes) or term syntax
//! (`r#0(a#1, …)`); annotations are `hide`/`show` lines; updates are
//! script terms (`nop:r#0(del:a#1, …)`).
//!
//! Commands compile the schema and view once into an [`Engine`], open the
//! document in a [`Session`], and serve every requested update from it —
//! repeating `--update` propagates a whole sequence, committing each
//! result (with incremental revalidation) before the next. Errors flow
//! through [`XvuError`] so every library stage composes with `?`.
//!
//! `propagate` also has a **batch mode**: repeating `--doc` pairs each
//! document with the `--update` at the same position and fans the
//! independent requests across `--jobs N` worker threads
//! ([`Engine::propagate_batch`]) — one compiled engine shared by every
//! worker, results printed in request order.
//!
//! All logic lives in [`run`] so it is unit-testable; the binary only
//! forwards `std::env::args` and prints.

use crate::error::XvuError;
use crate::prelude::*;
use std::fmt::Write as _;

/// Executes a CLI invocation. `args` excludes the program name. Returns
/// the text to print on success, or a user-facing error message.
pub fn run(args: &[String]) -> Result<String, String> {
    run_inner(args).map_err(|e| e.to_string())
}

fn run_inner(args: &[String]) -> Result<String, XvuError> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(usage)?;
    // the serving commands have their own flag surface
    match cmd.as_str() {
        "serve" => return cmd_serve(it.as_slice()),
        "client" => return cmd_client(it.as_slice()),
        "snapshot" => return cmd_snapshot(it.as_slice()),
        _ => {}
    }
    let opts = parse_opts(it.as_slice())?;
    if opts.jobs != 1 && cmd != "propagate" {
        return Err("--jobs applies to `propagate` only".into());
    }
    match cmd.as_str() {
        "validate" => cmd_validate(&opts),
        "view" => cmd_view(&opts),
        "invert" => cmd_invert(&opts),
        "propagate" => cmd_propagate(&opts),
        "help" | "--help" | "-h" => Ok(usage().to_string()),
        other => Err(format!("unknown command {other:?}\n\n{usage}", usage = usage()).into()),
    }
}

fn usage() -> XvuError {
    XvuError::Message(
        "usage: xvu <command> [options]\n\
         \n\
         commands:\n\
         \x20 validate  --dtd FILE --doc FILE\n\
         \x20 view      --dtd FILE --ann FILE --doc FILE\n\
         \x20 invert    --dtd FILE --ann FILE --view FILE\n\
         \x20 propagate --dtd FILE --ann FILE --doc FILE --update FILE\n\
         \x20           [--update FILE ...] [--selector nop|first|type] [--jobs N]\n\
         \x20 serve     --dtd FILE --ann FILE [--listen ADDR] [--stdio]\n\
         \x20           [--workers N] [--pool N] [--queue N] [--corpus FILE]\n\
         \x20 client    ADDR stats|shutdown\n\
         \x20 client    ADDR load ID FAMILY FILE | open ID | commit ID | close ID\n\
         \x20 client    ADDR propagate ID FILE | count ID FILE | verify ID FILE FILE\n\
         \x20 client    ADDR snapshot PATH\n\
         \x20 snapshot  pack --out FILE --doc FILE [--doc FILE ...] [--family N]\n\
         \x20 snapshot  info FILE\n\
         \x20 snapshot  unpack FILE [ID]\n\
         \n\
         repeating --doc in `propagate` pairs each document with the --update\n\
         at the same position and serves the batch on N worker threads;\n\
         `serve` runs the long-lived daemon, running at most --workers writes\n\
         at once with --queue more waiting, and `client` speaks its protocol;\n\
         `snapshot` converts term/XML documents to and from the flat binary\n\
         corpus format that `serve --corpus` preloads without parsing\n"
            .to_owned(),
    )
}

struct Opts {
    dtd: Option<String>,
    ann: Option<String>,
    docs: Vec<String>,
    view: Option<String>,
    updates: Vec<String>,
    selector: Selector,
    jobs: usize,
}

impl Opts {
    /// The single `--doc` required by non-batch commands.
    fn single_doc(&self) -> Result<&str, XvuError> {
        match self.docs.as_slice() {
            [] => Err("missing --doc FILE".into()),
            [one] => Ok(one),
            many => Err(format!(
                "this command takes one --doc, got {} (batch mode is `propagate` only)",
                many.len()
            )
            .into()),
        }
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, XvuError> {
    let mut opts = Opts {
        dtd: None,
        ann: None,
        docs: Vec::new(),
        view: None,
        updates: Vec::new(),
        selector: Selector::PreferNop,
        jobs: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| XvuError::Message(format!("flag {flag} needs a value")))
        };
        match flag.as_str() {
            "--dtd" => opts.dtd = Some(read_file(value()?)?),
            "--ann" => opts.ann = Some(read_file(value()?)?),
            "--doc" => opts.docs.push(read_file(value()?)?),
            "--view" => opts.view = Some(read_file(value()?)?),
            "--update" => opts.updates.push(read_file(value()?)?),
            "--jobs" => {
                opts.jobs = value()?.parse()?;
                if opts.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--selector" => {
                opts.selector = match value()? {
                    "nop" => Selector::PreferNop,
                    "first" => Selector::First,
                    "type" => Selector::PreferTypePreserving,
                    other => return Err(format!("unknown selector {other:?}").into()),
                }
            }
            other => {
                return Err(format!("unknown flag {other:?}\n\n{usage}", usage = usage()).into())
            }
        }
    }
    Ok(opts)
}

fn read_file(path: &str) -> Result<String, XvuError> {
    std::fs::read_to_string(path).map_err(|e| XvuError::Message(format!("cannot read {path}: {e}")))
}

/// Parsing context for the inputs: alphabet + id generator + parsed DTD.
/// All inputs are parsed *before* the engine is built, because parsing
/// interns labels into the alphabet.
struct Ctx {
    alpha: Alphabet,
    gen: NodeIdGen,
    dtd: Dtd,
}

impl Ctx {
    fn new(opts: &Opts) -> Result<Ctx, XvuError> {
        let src = opts.dtd.as_deref().ok_or("missing --dtd FILE")?;
        let mut alpha = Alphabet::new();
        let dtd = if src.trim_start().starts_with("<!") {
            read_dtd(&mut alpha, src)?
        } else {
            parse_dtd(&mut alpha, src)?
        };
        Ok(Ctx {
            alpha,
            gen: NodeIdGen::new(),
            dtd,
        })
    }

    fn doc(&mut self, src: &str) -> Result<DocTree, XvuError> {
        let trimmed = src.trim_start();
        if trimmed.starts_with('<') {
            Ok(read_xml(&mut self.alpha, &mut self.gen, src)?)
        } else {
            Ok(parse_term_with_ids(
                &mut self.alpha,
                &mut self.gen,
                src.trim(),
            )?)
        }
    }

    fn ann(&mut self, opts: &Opts) -> Result<Annotation, XvuError> {
        let src = opts.ann.as_deref().ok_or("missing --ann FILE")?;
        Ok(parse_annotation(&mut self.alpha, src)?)
    }

    /// Compiles the engine from the fully populated parsing context.
    fn engine(self, ann: Annotation, selector: Selector) -> Result<Engine, XvuError> {
        Ok(Engine::builder()
            .alphabet(self.alpha)
            .dtd(self.dtd)
            .annotation(ann)
            .selector(selector)
            .build()?)
    }
}

fn pretty() -> WriteOptions {
    WriteOptions {
        pretty: true,
        with_ids: true,
    }
}

fn cmd_validate(opts: &Opts) -> Result<String, XvuError> {
    let mut ctx = Ctx::new(opts)?;
    let doc = ctx.doc(opts.single_doc()?)?;
    match ctx.dtd.first_violation(&doc) {
        None => Ok(format!("valid: {} nodes\n", doc.size())),
        Some(v) => Err(format!(
            "invalid at node {} (label {}): child word [{}] not allowed",
            v.node,
            ctx.alpha.name(v.label),
            v.child_word
                .iter()
                .map(|&s| ctx.alpha.name(s))
                .collect::<Vec<_>>()
                .join(" ")
        )
        .into()),
    }
}

fn cmd_view(opts: &Opts) -> Result<String, XvuError> {
    // View extraction needs none of the engine's compiled artefacts
    // (no min-size tables, no view DTD) — validate and extract directly.
    let mut ctx = Ctx::new(opts)?;
    let ann = ctx.ann(opts)?;
    let doc = ctx.doc(opts.single_doc()?)?;
    ctx.dtd.validate(&doc)?;
    let view = extract_view(&ann, &doc);
    Ok(write_xml(&view, &ctx.alpha, &pretty()))
}

fn cmd_invert(opts: &Opts) -> Result<String, XvuError> {
    let mut ctx = Ctx::new(opts)?;
    let ann = ctx.ann(opts)?;
    let view_src = opts.view.as_deref().ok_or("missing --view FILE")?;
    let view = ctx.doc(view_src)?;
    let mut gen = ctx.gen.clone();
    let engine = ctx.engine(ann, opts.selector)?;
    let cm = engine.cost_model();
    let forest = InversionForest::build(engine.dtd(), engine.annotation(), &view, &cm)?;
    // The CLI keeps its historical generous budget: inversion of a bare
    // view may need large fresh witnesses that propagation never does.
    let inverse = forest.materialize_min(
        engine.dtd(),
        &cm,
        engine.config().selector,
        &mut gen,
        1_000_000,
    )?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "minimal inverse: {} nodes ({} visible + {} padding)",
        inverse.size(),
        view.size(),
        forest.min_padding()
    );
    out.push_str(&write_xml(&inverse, engine.alphabet(), &pretty()));
    Ok(out)
}

fn cmd_propagate(opts: &Opts) -> Result<String, XvuError> {
    let mut ctx = Ctx::new(opts)?;
    let ann = ctx.ann(opts)?;
    if opts.docs.is_empty() {
        return Err("missing --doc FILE".into());
    }
    if opts.updates.is_empty() {
        return Err("missing --update FILE".into());
    }
    let docs = opts
        .docs
        .iter()
        .map(|src| ctx.doc(src))
        .collect::<Result<Vec<DocTree>, XvuError>>()?;
    let updates = opts
        .updates
        .iter()
        .map(|src| Ok(parse_script(&mut ctx.alpha, src.trim())?))
        .collect::<Result<Vec<Script>, XvuError>>()?;

    if docs.len() > 1 {
        // Batch mode: document i pairs with update i; independent
        // requests fan across the worker pool.
        if docs.len() != updates.len() {
            return Err(format!(
                "batch mode pairs --doc with --update positionally: got {} docs, {} updates",
                docs.len(),
                updates.len()
            )
            .into());
        }
        let engine = ctx.engine(ann, opts.selector)?;
        let requests: Vec<(DocTree, Script)> = docs.into_iter().zip(updates).collect();
        let results = engine.propagate_batch(&requests, opts.jobs);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "batch: {} documents on {} worker thread(s)",
            requests.len(),
            opts.jobs
        );
        for (i, result) in results.iter().enumerate() {
            let _ = writeln!(out, "--- document {} of {} ---", i + 1, requests.len());
            match result {
                Ok(prop) => {
                    let _ = writeln!(out, "propagation cost: {}", prop.cost);
                    let _ = writeln!(
                        out,
                        "script: {}",
                        script_to_term(&prop.script, engine.alphabet())
                    );
                    let new_source =
                        output_tree(&prop.script).ok_or("propagation deletes the document root")?;
                    let _ = writeln!(out, "new source:");
                    out.push_str(&write_xml(&new_source, engine.alphabet(), &pretty()));
                }
                Err(e) => {
                    let _ = writeln!(out, "error: {e}");
                }
            }
        }
        return Ok(out);
    }

    // Compile once, serve every update from one session.
    let doc = docs.into_iter().next().expect("one document");
    let engine = ctx.engine(ann, opts.selector)?;
    let mut session = engine.open(&doc)?;

    let mut out = String::new();
    if opts.jobs > 1 {
        // a single document's updates are a dependent sequence (each
        // In(S) is the previous commit's view) — nothing to parallelise
        let _ = writeln!(
            out,
            "note: --jobs {} has no effect with one --doc; updates are a \
             dependent sequence served on one thread",
            opts.jobs
        );
    }
    let many = updates.len() > 1;
    for (i, update) in updates.iter().enumerate() {
        // One instance build per update: propagate and verify against it,
        // then release the session borrow before committing.
        let prop = {
            let inst = session.instance(update)?;
            let prop = engine.propagate(&inst)?;
            verify_propagation(&inst, &prop.script)?;
            prop
        };
        if many {
            let _ = writeln!(out, "--- update {} of {} ---", i + 1, updates.len());
        }
        let _ = writeln!(out, "propagation cost: {}", prop.cost);
        let _ = writeln!(
            out,
            "optimal propagations captured: {}",
            count_optimal_propagations(&prop.forest)
                .expect("a computed propagation's forest always counts ≥ 1")
        );
        let _ = writeln!(
            out,
            "script: {}",
            script_to_term(&prop.script, engine.alphabet())
        );
        session.commit(&prop)?;
    }
    let _ = writeln!(out, "new source:");
    out.push_str(&write_xml(session.document(), engine.alphabet(), &pretty()));
    Ok(out)
}

/// `xvu serve`: run the long-lived daemon over one schema/view family.
///
/// Documents are loaded by clients over the wire (`xvu client ADDR load
/// …`), so only the schema artefacts are compiled here. `--listen ADDR`
/// (default `127.0.0.1:7878`) serves TCP; `--stdio` serves exactly one
/// client on stdin/stdout instead. Returns (and prints) the final stats
/// snapshot once a client sends `shutdown`.
fn cmd_serve(args: &[String]) -> Result<String, XvuError> {
    let mut dtd_src = None;
    let mut ann_src = None;
    let mut listen = "127.0.0.1:7878".to_owned();
    let mut stdio = false;
    let mut corpus_path: Option<String> = None;
    let mut cfg = xvu_server::ServerConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| XvuError::Message(format!("flag {flag} needs a value")))
        };
        match flag.as_str() {
            "--dtd" => dtd_src = Some(read_file(value()?)?),
            "--ann" => ann_src = Some(read_file(value()?)?),
            "--listen" => listen = value()?.to_owned(),
            "--stdio" => stdio = true,
            "--corpus" => corpus_path = Some(value()?.to_owned()),
            "--workers" => cfg.workers = value()?.parse::<usize>()?.max(1),
            "--pool" => cfg.pool_capacity = value()?.parse::<usize>()?.max(1),
            "--queue" => cfg.queue_capacity = value()?.parse::<usize>()?.max(1),
            other => {
                return Err(format!("unknown flag {other:?}\n\n{usage}", usage = usage()).into())
            }
        }
    }
    let src = dtd_src.ok_or("missing --dtd FILE")?;
    let mut alpha = Alphabet::new();
    let dtd = if src.trim_start().starts_with("<!") {
        read_dtd(&mut alpha, &src)?
    } else {
        parse_dtd(&mut alpha, &src)?
    };
    let ann = parse_annotation(&mut alpha, ann_src.as_deref().ok_or("missing --ann FILE")?)?;
    let engines = [Engine::builder()
        .alphabet(alpha)
        .dtd(dtd)
        .annotation(ann)
        .build()?];
    let server = xvu_server::Server::new(&engines, cfg);
    if let Some(path) = &corpus_path {
        let corpus = crate::tree::SnapshotFile::open(path)
            .map_err(|e| XvuError::Message(format!("cannot load corpus {path}: {e}")))?;
        let loaded = server
            .preload_corpus(&corpus)
            .map_err(|e| XvuError::Message(format!("corpus {path}: {e}")))?;
        eprintln!("xvu serve: preloaded {loaded} documents from {path}");
    }
    let report = if stdio {
        let transport =
            xvu_server::DuplexTransport::new(std::io::stdin().lock(), std::io::stdout().lock());
        server.serve_transport(transport)
    } else {
        let listener = std::net::TcpListener::bind(&listen)
            .map_err(|e| XvuError::Message(format!("cannot listen on {listen}: {e}")))?;
        if let Ok(bound) = listener.local_addr() {
            eprintln!("xvu serve: listening on {bound}");
        }
        server
            .serve_listener(listener)
            .map_err(|e| XvuError::Message(format!("serve failed: {e}")))?
    };
    if let Some(path) = &corpus_path {
        // persist the committed store back to the corpus it was booted
        // from, so the next `serve --corpus` resumes without parsing
        let bytes = server.snapshot_store_bytes();
        std::fs::write(path, &bytes)
            .map_err(|e| XvuError::Message(format!("cannot write corpus {path}: {e}")))?;
        eprintln!(
            "xvu serve: wrote corpus back to {path} ({} bytes)",
            bytes.len()
        );
    }
    Ok(format!(
        "served {} requests (drained {})\n{}\n",
        report.stats.total_requests(),
        if report.drained_clean {
            "clean"
        } else {
            "DIRTY"
        },
        report.stats.to_json()
    ))
}

/// `xvu client`: one request against a running daemon. Document files
/// may be XML (converted to the wire term syntax) or terms; script files
/// are passed through as terms.
fn cmd_client(args: &[String]) -> Result<String, XvuError> {
    let mut it = args.iter().map(String::as_str);
    let addr = it.next().ok_or("client needs ADDR, then a verb")?;
    let verb = it.next().ok_or("client needs a verb after ADDR")?;
    let mut next = |what: &str| {
        it.next()
            .ok_or_else(|| XvuError::Message(format!("client {verb} needs {what}")))
    };
    let mut client = xvu_server::Client::connect(addr)
        .map_err(|e| XvuError::Message(format!("cannot reach {addr}: {e}")))?;
    let fail = |e: xvu_server::ClientError| XvuError::Message(e.to_string());
    let parse_id = |s: &str| {
        s.parse::<u64>()
            .map_err(|_| XvuError::Message(format!("bad document id {s:?}")))
    };
    match verb {
        "stats" => Ok(format!("{}\n", client.stats().map_err(fail)?)),
        "shutdown" => Ok(format!("{}\n", client.shutdown().map_err(fail)?)),
        "load" => {
            let id = parse_id(next("ID")?)?;
            let family = next("FAMILY")?
                .parse::<usize>()
                .map_err(|_| XvuError::Message("bad family index".to_owned()))?;
            let term = doc_file_as_term(next("FILE")?)?;
            client.load(id, family, &term).map_err(fail)?;
            Ok(format!("loaded document {id}\n"))
        }
        "open" => {
            let id = parse_id(next("ID")?)?;
            Ok(format!("{}\n", client.open(id).map_err(fail)?))
        }
        "propagate" => {
            let id = parse_id(next("ID")?)?;
            let script = read_file(next("FILE")?)?;
            let reply = client.propagate(id, script.trim()).map_err(fail)?;
            Ok(format!(
                "propagation cost: {}\noptimal propagations captured: {}\nscript: {}\n",
                reply.cost, reply.count, reply.script
            ))
        }
        "count" => {
            let id = parse_id(next("ID")?)?;
            let script = read_file(next("FILE")?)?;
            let n = client.count(id, script.trim()).map_err(fail)?;
            Ok(format!("optimal propagations captured: {n}\n"))
        }
        "verify" => {
            let id = parse_id(next("ID")?)?;
            let update = read_file(next("UPDATE-FILE")?)?;
            let candidate = read_file(next("CANDIDATE-FILE")?)?;
            client
                .verify(id, update.trim(), candidate.trim())
                .map_err(fail)?;
            Ok("verified: candidate propagates the update\n".to_owned())
        }
        "commit" => {
            let id = parse_id(next("ID")?)?;
            client.commit(id).map_err(fail)?;
            Ok(format!("committed document {id}\n"))
        }
        "close" => {
            let id = parse_id(next("ID")?)?;
            client.close_doc(id).map_err(fail)?;
            Ok(format!("closed document {id}\n"))
        }
        "snapshot" => {
            let path = next("PATH")?;
            let summary = client.snapshot(path).map_err(fail)?;
            Ok(format!("snapshot written to {path}: {summary}\n"))
        }
        other => Err(format!("unknown client verb {other:?}\n\n{usage}", usage = usage()).into()),
    }
}

/// `xvu snapshot`: convert documents to and from the flat binary corpus
/// format ([`crate::tree::snapshot`]). `pack` interns every `--doc` file
/// (XML or term) into one shared alphabet and writes a corpus with
/// sequential document ids; `info` lists the directory; `unpack` decodes
/// one document (or all of them) back to term syntax.
fn cmd_snapshot(args: &[String]) -> Result<String, XvuError> {
    use crate::tree::{CorpusBuilder, SnapshotFile};
    let mut it = args.iter();
    let sub = it
        .next()
        .ok_or("snapshot needs a subcommand: pack, info or unpack")?;
    match sub.as_str() {
        "pack" => {
            let mut out_path = None;
            let mut docs = Vec::new();
            let mut family = 0u32;
            while let Some(flag) = it.next() {
                let mut value = || {
                    it.next()
                        .map(String::as_str)
                        .ok_or_else(|| XvuError::Message(format!("flag {flag} needs a value")))
                };
                match flag.as_str() {
                    "--out" => out_path = Some(value()?.to_owned()),
                    "--doc" => docs.push(value()?.to_owned()),
                    "--family" => {
                        family = value()?
                            .parse::<u32>()
                            .map_err(|_| XvuError::Message("bad --family index".to_owned()))?
                    }
                    other => {
                        return Err(
                            format!("unknown flag {other:?}\n\n{usage}", usage = usage()).into(),
                        )
                    }
                }
            }
            let out_path = out_path.ok_or("missing --out FILE")?;
            if docs.is_empty() {
                return Err("pack needs at least one --doc FILE".into());
            }
            // one shared alphabet: every document's labels intern into the
            // same symbol space, like a serving family's engine alphabet
            let mut alpha = Alphabet::new();
            let mut gen = NodeIdGen::new();
            let mut builder = CorpusBuilder::new();
            for (id, path) in docs.iter().enumerate() {
                let term = doc_file_as_term(path)?;
                let tree = parse_term_with_ids(&mut alpha, &mut gen, &term)?;
                builder
                    .push(id as u64, family, &tree, &alpha)
                    .map_err(|e| XvuError::Message(format!("cannot encode {path}: {e}")))?;
            }
            let bytes = builder.finish();
            std::fs::write(&out_path, &bytes)
                .map_err(|e| XvuError::Message(format!("cannot write {out_path}: {e}")))?;
            Ok(format!(
                "packed {} documents into {out_path} ({} bytes)\n",
                docs.len(),
                bytes.len()
            ))
        }
        "info" => {
            let path = it.next().ok_or("info needs a corpus FILE")?;
            let corpus = SnapshotFile::open(path)
                .map_err(|e| XvuError::Message(format!("cannot load corpus {path}: {e}")))?;
            let mut out = format!("corpus {path}: {} documents\n", corpus.len());
            for (i, entry) in corpus.entries().iter().enumerate() {
                let mut alpha = Alphabet::new();
                let tree = corpus
                    .decode(i, &mut alpha)
                    .map_err(|e| XvuError::Message(format!("doc {}: {e}", entry.doc_id)))?;
                let _ = writeln!(
                    out,
                    "  doc {} family {}: {} nodes, {} bytes",
                    entry.doc_id,
                    entry.family,
                    tree.size(),
                    entry.byte_len()
                );
            }
            Ok(out)
        }
        "unpack" => {
            let path = it.next().ok_or("unpack needs a corpus FILE")?;
            let corpus = SnapshotFile::open(path)
                .map_err(|e| XvuError::Message(format!("cannot load corpus {path}: {e}")))?;
            let only: Option<u64> = match it.next() {
                Some(s) => Some(
                    s.parse::<u64>()
                        .map_err(|_| XvuError::Message(format!("bad document id {s:?}")))?,
                ),
                None => None,
            };
            let mut out = String::new();
            let mut matched = false;
            for (i, entry) in corpus.entries().iter().enumerate() {
                if let Some(want) = only {
                    if entry.doc_id != want {
                        continue;
                    }
                }
                matched = true;
                let mut alpha = Alphabet::new();
                let tree = corpus
                    .decode(i, &mut alpha)
                    .map_err(|e| XvuError::Message(format!("doc {}: {e}", entry.doc_id)))?;
                let _ = writeln!(
                    out,
                    "doc {} family {}: {}",
                    entry.doc_id,
                    entry.family,
                    to_term_with_ids(&tree, &alpha)
                );
            }
            if !matched {
                return Err(match only {
                    Some(id) => format!("document {id} not in corpus {path}").into(),
                    None => format!("corpus {path} is empty").into(),
                });
            }
            Ok(out)
        }
        other => Err(format!(
            "unknown snapshot subcommand {other:?}\n\n{usage}",
            usage = usage()
        )
        .into()),
    }
}

/// Reads a document file for the wire: XML is converted to the term
/// syntax (the daemon's document format), terms pass through.
fn doc_file_as_term(path: &str) -> Result<String, XvuError> {
    let src = read_file(path)?;
    if src.trim_start().starts_with('<') {
        let mut alpha = Alphabet::new();
        let mut gen = NodeIdGen::new();
        let doc = read_xml(&mut alpha, &mut gen, &src)?;
        Ok(to_term_with_ids(&doc, &alpha))
    } else {
        Ok(src.trim().to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DTD: &str = "r -> (a.(b+c).d)*\nd -> ((a+b).c)*";
    const ANN: &str = "hide r b\nhide r c\nhide d a\nhide d b";
    const DOC: &str = "r#0(a#1, b#2, d#3(a#7, c#8), a#4, c#5, d#6(b#9, c#10))";
    const UPDATE: &str = "nop:r#0(del:a#1, del:d#3(del:c#8), nop:a#4, \
        ins:d#11(ins:c#13, ins:c#14), ins:a#12, nop:d#6(nop:c#10, ins:c#15))";

    fn write_tmp(name: &str, content: &str) -> String {
        let dir = std::env::temp_dir().join(format!("xvu-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(name);
        std::fs::write(&path, content).expect("write tmp");
        path.to_string_lossy().into_owned()
    }

    fn run_args(args: &[&str]) -> Result<String, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&owned)
    }

    #[test]
    fn validate_accepts_and_rejects() {
        let dtd = write_tmp("schema.rules", DTD);
        let good = write_tmp("good.term", DOC);
        let out = run_args(&["validate", "--dtd", &dtd, "--doc", &good]).unwrap();
        assert!(out.contains("valid: 11 nodes"));

        let bad = write_tmp("bad.term", "r#0(a#1)");
        let err = run_args(&["validate", "--dtd", &dtd, "--doc", &bad]).unwrap_err();
        assert!(err.contains("invalid at node"));
    }

    #[test]
    fn view_prints_xml() {
        let dtd = write_tmp("schema2.rules", DTD);
        let ann = write_tmp("view.ann", ANN);
        let doc = write_tmp("doc.term", DOC);
        let out = run_args(&["view", "--dtd", &dtd, "--ann", &ann, "--doc", &doc]).unwrap();
        assert!(out.contains("<r xvu:id=\"0\">"));
        assert!(!out.contains("<b"), "hidden b must not appear:\n{out}");
    }

    #[test]
    fn propagate_full_pipeline() {
        let dtd = write_tmp("schema3.rules", DTD);
        let ann = write_tmp("view3.ann", ANN);
        let doc = write_tmp("doc3.term", DOC);
        let upd = write_tmp("edit3.script", UPDATE);
        let out = run_args(&[
            "propagate",
            "--dtd",
            &dtd,
            "--ann",
            &ann,
            "--doc",
            &doc,
            "--update",
            &upd,
        ])
        .unwrap();
        assert!(out.contains("propagation cost: 14"), "{out}");
        assert!(out.contains("new source:"));
    }

    #[test]
    fn propagate_applies_update_sequences() {
        // Two updates against the evolving view, served by one session:
        // delete the first (a, d) group, then delete the remaining one.
        let dtd = write_tmp("schema7.rules", DTD);
        let ann = write_tmp("view7.ann", ANN);
        let doc = write_tmp("doc7.term", DOC);
        let u1 = write_tmp(
            "edit7a.script",
            "nop:r#0(del:a#1, del:d#3(del:c#8), nop:a#4, nop:d#6(nop:c#10))",
        );
        let u2 = write_tmp("edit7b.script", "nop:r#0(del:a#4, del:d#6(del:c#10))");
        let out = run_args(&[
            "propagate",
            "--dtd",
            &dtd,
            "--ann",
            &ann,
            "--doc",
            &doc,
            "--update",
            &u1,
            "--update",
            &u2,
        ])
        .unwrap();
        assert!(out.contains("--- update 1 of 2 ---"), "{out}");
        assert!(out.contains("--- update 2 of 2 ---"), "{out}");
        // everything is deleted: the final source is the bare root
        assert!(out.contains("new source:"));
        assert!(out.trim_end().ends_with("<r xvu:id=\"0\"/>"), "{out}");
    }

    #[test]
    fn propagate_batch_mode_over_worker_threads() {
        // Three documents, three positionally paired updates, two worker
        // threads: results come back in request order, one engine.
        let dtd = write_tmp("schema8.rules", DTD);
        let ann = write_tmp("view8.ann", ANN);
        let d1 = write_tmp("doc8a.term", DOC);
        let d2 = write_tmp(
            "doc8b.term",
            "r#20(a#21, b#22, d#23(a#27, c#28), a#24, c#25, d#26(b#29, c#30))",
        );
        let d3 = write_tmp("doc8c.term", DOC);
        let u1 = write_tmp("edit8a.script", UPDATE);
        let u2 = write_tmp(
            "edit8b.script",
            "nop:r#20(del:a#21, del:d#23(del:c#28), nop:a#24, nop:d#26(nop:c#30))",
        );
        let u3 = write_tmp("edit8c.script", UPDATE);
        let out = run_args(&[
            "propagate",
            "--dtd",
            &dtd,
            "--ann",
            &ann,
            "--doc",
            &d1,
            "--doc",
            &d2,
            "--doc",
            &d3,
            "--update",
            &u1,
            "--update",
            &u2,
            "--update",
            &u3,
            "--jobs",
            "2",
        ])
        .unwrap();
        assert!(
            out.contains("batch: 3 documents on 2 worker thread(s)"),
            "{out}"
        );
        assert!(out.contains("--- document 1 of 3 ---"), "{out}");
        assert!(out.contains("--- document 3 of 3 ---"), "{out}");
        // documents 1 and 3 are the paper instance (cost 14); document 2
        // is the pure deletion (the hidden group goes with it)
        assert_eq!(out.matches("propagation cost: 14").count(), 2, "{out}");
        assert_eq!(out.matches("new source:").count(), 3, "{out}");
    }

    #[test]
    fn propagate_batch_mode_reports_errors_per_document() {
        let dtd = write_tmp("schema9.rules", DTD);
        let ann = write_tmp("view9.ann", ANN);
        let good = write_tmp("doc9a.term", DOC);
        let bad = write_tmp("doc9b.term", "r#50(a#51)"); // invalid source
        let u = write_tmp("edit9.script", UPDATE);
        let u2 = write_tmp("edit9b.script", "nop:r#50(nop:a#51)");
        let out = run_args(&[
            "propagate",
            "--dtd",
            &dtd,
            "--ann",
            &ann,
            "--doc",
            &good,
            "--doc",
            &bad,
            "--update",
            &u,
            "--update",
            &u2,
            "--jobs",
            "4",
        ])
        .unwrap();
        assert!(out.contains("propagation cost: 14"), "{out}");
        assert!(out.contains("error: source document invalid"), "{out}");
    }

    #[test]
    fn batch_flags_are_validated() {
        let dtd = write_tmp("schema10.rules", DTD);
        let ann = write_tmp("view10.ann", ANN);
        let doc = write_tmp("doc10.term", DOC);
        let u = write_tmp("edit10.script", UPDATE);
        // mismatched doc/update counts
        let err = run_args(&[
            "propagate",
            "--dtd",
            &dtd,
            "--ann",
            &ann,
            "--doc",
            &doc,
            "--doc",
            &doc,
            "--update",
            &u,
        ])
        .unwrap_err();
        assert!(err.contains("positionally"), "{err}");
        // --jobs must be a positive integer
        let err = run_args(&[
            "propagate",
            "--dtd",
            &dtd,
            "--ann",
            &ann,
            "--doc",
            &doc,
            "--update",
            &u,
            "--jobs",
            "0",
        ])
        .unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        let err = run_args(&[
            "propagate",
            "--dtd",
            &dtd,
            "--ann",
            &ann,
            "--doc",
            &doc,
            "--update",
            &u,
            "--jobs",
            "many",
        ])
        .unwrap_err();
        assert!(err.contains("invalid number"), "{err}");
        // multiple --doc on a single-document command
        let err = run_args(&["validate", "--dtd", &dtd, "--doc", &doc, "--doc", &doc]).unwrap_err();
        assert!(err.contains("one --doc"), "{err}");
        // --jobs on a non-propagate command is an error, not a silent no-op
        let err = run_args(&["validate", "--dtd", &dtd, "--doc", &doc, "--jobs", "4"]).unwrap_err();
        assert!(err.contains("--jobs applies to `propagate` only"), "{err}");
        // --jobs with one --doc is served sequentially, and says so
        let out = run_args(&[
            "propagate",
            "--dtd",
            &dtd,
            "--ann",
            &ann,
            "--doc",
            &doc,
            "--update",
            &u,
            "--jobs",
            "4",
        ])
        .unwrap();
        assert!(out.contains("note: --jobs 4 has no effect"), "{out}");
        assert!(out.contains("propagation cost: 14"), "{out}");
    }

    #[test]
    fn invert_reports_padding() {
        let dtd = write_tmp("schema4.rules", DTD);
        let ann = write_tmp("view4.ann", ANN);
        let view = write_tmp("view4.term", "d#11(c#13, c#14)");
        let out = run_args(&["invert", "--dtd", &dtd, "--ann", &ann, "--view", &view]).unwrap();
        assert!(out.contains("5 nodes (3 visible + 2 padding)"), "{out}");
    }

    #[test]
    fn xml_dtd_syntax_is_sniffed() {
        let dtd = write_tmp(
            "schema5.dtd",
            "<!ELEMENT r (a, (b | c), d)*>\n<!ELEMENT d ((a | b), c)*>",
        );
        let doc = write_tmp("doc5.xml", "<r><a/><b/><d><a/><c/></d></r>");
        let out = run_args(&["validate", "--dtd", &dtd, "--doc", &doc]).unwrap();
        assert!(out.contains("valid: 6 nodes"));
    }

    #[test]
    fn errors_are_user_facing() {
        assert!(run_args(&[]).is_err());
        assert!(run_args(&["frobnicate"]).unwrap_err().contains("usage"));
        assert!(run_args(&["validate"]).unwrap_err().contains("--dtd"));
        let dtd = write_tmp("schema6.rules", DTD);
        assert!(run_args(&["validate", "--dtd", &dtd])
            .unwrap_err()
            .contains("--doc"));
        assert!(run_args(&["validate", "--dtd", "/nonexistent/x"])
            .unwrap_err()
            .contains("cannot read"));
        // `NodeId::MAX` leaves no identifier for the second `a`
        let exhausted = write_tmp(
            "exhausted6.xml",
            r#"<r><a xvu:id="18446744073709551614"/><a/></r>"#,
        );
        assert!(run_args(&["validate", "--dtd", &dtd, "--doc", &exhausted])
            .unwrap_err()
            .contains("node identifier space exhausted"));
        let ann = write_tmp("view6.ann", ANN);
        let doc = write_tmp("doc6.term", DOC);
        assert!(
            run_args(&["propagate", "--dtd", &dtd, "--ann", &ann, "--doc", &doc])
                .unwrap_err()
                .contains("--update")
        );
    }

    #[test]
    fn help_prints_usage() {
        let out = run_args(&["help"]).unwrap();
        assert!(out.contains("usage: xvu"));
        assert!(out.contains("serve"), "{out}");
        assert!(out.contains("client"), "{out}");
    }

    /// A locally free TCP address (bind-then-drop; the small race with
    /// other processes is acceptable in tests).
    fn free_addr() -> String {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    }

    #[test]
    fn serve_and_client_cover_the_wire_lifecycle() {
        let dtd = write_tmp("schema11.rules", DTD);
        let ann = write_tmp("view11.ann", ANN);
        let doc = write_tmp("doc11.term", DOC);
        let upd = write_tmp("edit11.script", UPDATE);
        let addr = free_addr();
        let serve_args: Vec<String> = [
            "serve",
            "--dtd",
            &dtd,
            "--ann",
            &ann,
            "--listen",
            &addr,
            "--workers",
            "2",
            "--pool",
            "2",
            "--queue",
            "8",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let daemon = std::thread::spawn(move || run(&serve_args));

        // the daemon needs a moment to bind; retry until it accepts
        let mut connected = false;
        for _ in 0..200 {
            if run_args(&["client", &addr, "stats"]).is_ok() {
                connected = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(connected, "daemon never came up on {addr}");

        let out = run_args(&["client", &addr, "load", "7", "0", &doc]).unwrap();
        assert!(out.contains("loaded document 7"), "{out}");
        let view = run_args(&["client", &addr, "open", "7"]).unwrap();
        assert!(view.contains("a#1"), "{view}");
        assert!(!view.contains("b#2"), "hidden node leaked: {view}");
        let out = run_args(&["client", &addr, "propagate", "7", &upd]).unwrap();
        assert!(out.contains("propagation cost: 14"), "{out}");
        let out = run_args(&["client", &addr, "count", "7", &upd]).unwrap();
        assert!(out.contains("optimal propagations captured:"), "{out}");
        let out = run_args(&["client", &addr, "commit", "7"]).unwrap();
        assert!(out.contains("committed"), "{out}");
        let out = run_args(&["client", &addr, "close", "7"]).unwrap();
        assert!(out.contains("closed"), "{out}");
        let err = run_args(&["client", &addr, "open", "99"]).unwrap_err();
        assert!(err.contains("unknown document"), "{err}");
        let stats = run_args(&["client", &addr, "stats"]).unwrap();
        assert!(stats.contains("\"propagate\":1"), "{stats}");

        let finale = run_args(&["client", &addr, "shutdown"]).unwrap();
        assert!(finale.contains("\"requests\""), "{finale}");
        let served = daemon.join().expect("serve thread").unwrap();
        assert!(served.contains("drained clean"), "{served}");
    }

    #[test]
    fn snapshot_pack_info_unpack_round_trip() {
        let doc_a = write_tmp("snap-a.term", DOC);
        let doc_b = write_tmp("snap-b.term", "r#20(a#21, b#22, d#23)");
        let out_path = write_tmp("corpus.xvus", "");
        let out = run_args(&[
            "snapshot", "pack", "--out", &out_path, "--doc", &doc_a, "--doc", &doc_b,
        ])
        .unwrap();
        assert!(out.contains("packed 2 documents"), "{out}");

        let info = run_args(&["snapshot", "info", &out_path]).unwrap();
        assert!(info.contains("2 documents"), "{info}");
        assert!(info.contains("doc 0 family 0: 11 nodes"), "{info}");
        assert!(info.contains("doc 1 family 0: 4 nodes"), "{info}");

        // unpacking one document reproduces the term exactly (same ids)
        let one = run_args(&["snapshot", "unpack", &out_path, "1"]).unwrap();
        assert!(one.contains("r#20(a#21, b#22, d#23)"), "{one}");
        let all = run_args(&["snapshot", "unpack", &out_path]).unwrap();
        assert!(all.contains("r#0(") && all.contains("r#20("), "{all}");

        let err = run_args(&["snapshot", "unpack", &out_path, "9"]).unwrap_err();
        assert!(err.contains("not in corpus"), "{err}");
    }

    #[test]
    fn snapshot_flags_are_validated() {
        assert!(run_args(&["snapshot"]).unwrap_err().contains("subcommand"));
        assert!(run_args(&["snapshot", "frob"])
            .unwrap_err()
            .contains("unknown snapshot subcommand"));
        assert!(run_args(&["snapshot", "pack"])
            .unwrap_err()
            .contains("--out"));
        let out = write_tmp("corpus-empty.xvus", "");
        assert!(run_args(&["snapshot", "pack", "--out", &out])
            .unwrap_err()
            .contains("--doc"));
        // a non-corpus file is a typed decode error, not a panic
        let junk = write_tmp("junk.xvus", "not a corpus");
        assert!(run_args(&["snapshot", "info", &junk])
            .unwrap_err()
            .contains("cannot load corpus"));
    }

    #[test]
    fn serve_preloads_a_corpus_and_snapshots_it_back() {
        let dtd = write_tmp("schema13.rules", DTD);
        let ann = write_tmp("view13.ann", ANN);
        let doc = write_tmp("doc13.term", DOC);
        let upd = write_tmp("edit13.script", UPDATE);
        let corpus = write_tmp("corpus13.xvus", "");
        let out = run_args(&["snapshot", "pack", "--out", &corpus, "--doc", &doc]).unwrap();
        assert!(out.contains("packed 1 documents"), "{out}");

        let addr = free_addr();
        let serve_args: Vec<String> = [
            "serve", "--dtd", &dtd, "--ann", &ann, "--listen", &addr, "--corpus", &corpus,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let daemon = std::thread::spawn(move || run(&serve_args));
        let mut connected = false;
        for _ in 0..200 {
            if run_args(&["client", &addr, "stats"]).is_ok() {
                connected = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(connected, "daemon never came up on {addr}");

        // the packed document (id 0) is servable without a `load`
        let view = run_args(&["client", &addr, "open", "0"]).unwrap();
        assert!(view.contains("a#1"), "{view}");
        let out = run_args(&["client", &addr, "propagate", "0", &upd]).unwrap();
        assert!(out.contains("propagation cost: 14"), "{out}");
        let out = run_args(&["client", &addr, "commit", "0"]).unwrap();
        assert!(out.contains("committed"), "{out}");

        // the snapshot verb writes the committed store to a fresh corpus
        let mid = write_tmp("corpus13-mid.xvus", "");
        let out = run_args(&["client", &addr, "snapshot", &mid]).unwrap();
        assert!(out.contains("docs=1"), "{out}");
        let info = run_args(&["snapshot", "info", &mid]).unwrap();
        assert!(info.contains("doc 0 family 0"), "{info}");

        run_args(&["client", &addr, "shutdown"]).unwrap();
        let served = daemon.join().expect("serve thread").unwrap();
        assert!(served.contains("drained clean"), "{served}");

        // shutdown wrote the committed (post-propagate) store back to the
        // boot corpus: the unpacked term reflects the committed edit
        let unpacked = run_args(&["snapshot", "unpack", &corpus, "0"]).unwrap();
        assert!(
            !unpacked.contains("a#1,"),
            "deleted node survived: {unpacked}"
        );
        assert!(
            unpacked.contains("d#11"),
            "inserted node missing: {unpacked}"
        );
    }

    #[test]
    fn serve_and_client_flags_are_validated() {
        assert!(run_args(&["serve"]).unwrap_err().contains("--dtd"));
        let dtd = write_tmp("schema12.rules", DTD);
        assert!(run_args(&["serve", "--dtd", &dtd])
            .unwrap_err()
            .contains("--ann"));
        assert!(run_args(&["serve", "--frob"])
            .unwrap_err()
            .contains("unknown flag"));
        assert!(run_args(&["client"]).unwrap_err().contains("ADDR"));
        // nothing listens on a freshly freed port
        let addr = free_addr();
        assert!(run_args(&["client", &addr, "stats"])
            .unwrap_err()
            .contains("cannot reach"));
    }
}
