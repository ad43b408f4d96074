//! `ayb` — launch, queue, serve, resume and inspect durable model-generation
//! runs from the shell.
//!
//! ```text
//! ayb run    [--store DIR] [--id RUN_ID] [--scale reduced|demo|paper]
//!            [--seed N] [--optimizer wbga|nsga2|random] [--threads N]
//!            [--early-stop K] [--sharded] [--shard-size N]
//!            [--variation-batch N] [--transport tcp://HOST:PORT]
//!            [--halt-after N] [--quiet]
//! ayb resume [--store DIR] RUN_ID [--halt-after N] [--quiet]
//! ayb submit [--store DIR] [--id RUN_ID] [--scale S] [--seed N]
//!            [--optimizer O] [--threads N] [--early-stop K]
//!            [--sharded] [--shard-size N] [--variation-batch N]
//!            [--transport tcp://HOST:PORT]
//! ayb serve  [--store DIR] [--workers N] [--drain] [--shards-only]
//!            [--transport tcp://HOST:PORT] [--poll-ms MS] [--quiet]
//! ayb serve-http [--store DIR] [--bind ADDR] [--workers N]
//!            [--max-connections N] [--default-quota QUEUED:RUNNING]
//!            [--tenant-quota NAME=QUEUED:RUNNING] [--tenant-weight NAME=W]
//!            [--poll-ms MS] [--quiet]
//! ayb coordinate [--bind ADDR] [--poll-ms MS] [--quiet]
//! ayb status [--store DIR] [RUN_ID]
//! ayb trace  [--store DIR] RUN_ID
//! ayb top    [--store DIR] [--transport tcp://HOST:PORT] [--watch SECS]
//! ayb list   [--store DIR]
//! ayb show   [--store DIR] RUN_ID [--digest]
//! ayb report [--store DIR] RUN_ID
//! ayb gc     [--store DIR] [--keep-checkpoints K] [--sweep-all]
//! ayb cache  [--store DIR] [status|gc] [--max-age-hours H]
//! ```
//!
//! Every run lives under `<store>/runs/<run_id>/` with a manifest, one
//! checkpoint per optimiser generation and (once completed) the final
//! result. A run killed at any point — or deliberately interrupted with
//! `--halt-after N` — is continued by `ayb resume RUN_ID` and produces a
//! result identical to the uninterrupted run (compare with
//! `ayb show RUN_ID --digest`).
//!
//! Every run simulates on the one dense LU kernel, which its manifest
//! records as `"solver": "Dense"`. A run recorded with any other kernel
//! (the retired `Sparse`) cannot be read: `ayb list` shows it as
//! `<unreadable: …>`, and `show`, `report` and `resume` exit non-zero
//! naming the kernel.
//!
//! `ayb report RUN_ID` prints the paper's evaluation from a completed run:
//! Tables 1–5, the Figure 7–11 data and the model-vs-conventional speed-up,
//! in paper order. It reads the stored manifest and result and runs only the
//! verification simulations those sections need — never the flow.
//!
//! `ayb submit` queues runs without executing them; `ayb serve` drives a
//! worker pool over the same store (any number of server processes may share
//! it — claims keep every run exactly-once). A SIGKILLed server loses
//! nothing: restart it and the interrupted runs resume from their latest
//! checkpoints. `ayb status` shows the queue, `ayb gc` sweeps stale temp
//! files and prunes old checkpoints.
//!
//! `ayb serve-http` is the service plane (the `ayb_svc` crate): a
//! multi-tenant HTTP/JSON front door over the same store. Clients submit
//! runs with `POST /v1/runs` (tenant from the `x-ayb-tenant` header), poll
//! `GET /v1/runs/{id}`, fetch results, cancel queued runs, and scrape
//! `GET /v1/metrics`. Identical submissions deduplicate to one run
//! (content-addressed digests), per-tenant quotas answer 429, and the
//! embedded worker pool dispatches weighted round-robin across tenants —
//! the same rotation a plain `ayb serve` runs, at weight 1 and with no
//! running caps.
//!
//! `ayb coordinate` runs the network shard coordinator (the `ayb_net`
//! crate): a sharded flow submitted with `--transport tcp://HOST:PORT`
//! publishes its shards to the coordinator instead of the store's on-disk
//! plane, and any `ayb serve --transport tcp://HOST:PORT` worker — on any
//! machine, with any (even empty) local store — services them. Coordinator,
//! submitter and workers need no shared filesystem.
//!
//! Every durable run also appends structured telemetry to
//! `runs/<run_id>/events.jsonl` (the `ayb_obs` event layer). `ayb trace`
//! reconstructs a run's timeline from it — stages, checkpoints, shard
//! claim → fence → steal chains — and `ayb top` polls the store (and, with
//! `--transport`, a live coordinator's metrics) for a fleet-wide view.
//! Progress output on stderr goes through the same layer and is filtered
//! by `AYB_LOG` (debug|info|warn|error, default info).
//!
//! The store directory defaults to `$AYB_STORE` or `./ayb-store`.
//! Argument parsing is plain `std` — no CLI dependencies.

use ayb_core::{AybError, FlowBuilder, FlowConfig, FlowResult, StderrObserver};
use ayb_jobs::{JobServer, JobServerConfig};
use ayb_moo::{CheckpointError, EarlyStop, OptimizerConfig};
use ayb_net::{Coordinator, CoordinatorConfig, TcpTransport};
use ayb_obs::{kind as event_kind, log_to_stderr, Event, Histogram, Severity, StderrSink};
use ayb_store::{ClaimHealth, Manifest, ResultCache, RunStatus, Store};
use ayb_svc::{SvcConfig, SvcServer, TenantQuota};
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// Writes `text` to stdout. A reader that closed the pipe early
/// (`ayb status … | grep -q`) has read all it wanted, so the process ends
/// with status 0; any other write error ends it with a message and status 1.
fn write_stdout(text: std::fmt::Arguments<'_>) {
    if let Err(error) = std::io::stdout().lock().write_fmt(text) {
        if error.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {error}");
        std::process::exit(1);
    }
}

// These `print!` and `println!` shadow the standard ones, which panic when
// a write fails, so every stdout write in this file goes through
// `write_stdout`.
macro_rules! print {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

macro_rules! println {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

const USAGE: &str = "\
ayb — durable, resumable model-generation runs (DATE'08 flow)

USAGE:
    ayb run    [--store DIR] [--id RUN_ID] [--scale reduced|demo|paper]
               [--seed N] [--optimizer wbga|nsga2|random] [--threads N]
               [--early-stop K] [--sharded] [--shard-size N]
               [--variation-batch N] [--transport tcp://HOST:PORT]
               [--halt-after N] [--quiet]
    ayb resume [--store DIR] RUN_ID [--halt-after N] [--quiet]
    ayb submit [--store DIR] [--id RUN_ID] [--scale S] [--seed N]
               [--optimizer O] [--threads N] [--early-stop K]
               [--sharded] [--shard-size N] [--variation-batch N]
               [--transport tcp://HOST:PORT]
    ayb serve  [--store DIR] [--workers N] [--drain] [--shards-only]
               [--transport tcp://HOST:PORT] [--poll-ms MS] [--quiet]
    ayb serve-http [--store DIR] [--bind ADDR] [--workers N]
               [--max-connections N] [--default-quota QUEUED:RUNNING]
               [--tenant-quota NAME=QUEUED:RUNNING] [--tenant-weight NAME=W]
               [--poll-ms MS] [--quiet]
    ayb coordinate [--bind ADDR] [--poll-ms MS] [--quiet]
    ayb status [--store DIR] [RUN_ID]
    ayb trace  [--store DIR] RUN_ID
    ayb top    [--store DIR] [--transport tcp://HOST:PORT] [--watch SECS]
    ayb list   [--store DIR]
    ayb show   [--store DIR] RUN_ID [--digest]
    ayb report [--store DIR] RUN_ID
    ayb gc     [--store DIR] [--keep-checkpoints K] [--sweep-all]
    ayb cache  [--store DIR] [status|gc] [--max-age-hours H]

OPTIONS:
    --store DIR           Store directory (default: $AYB_STORE or ./ayb-store)
    --id RUN_ID           Run id to create (default: next sequential run-NNNN)
    --scale S             Flow scale: reduced (default, seconds), demo, paper
    --seed N              End-to-end deterministic seed (optimiser + Monte Carlo)
    --optimizer O         wbga (default, the paper's), nsga2, random
    --threads N           Worker threads for batch circuit evaluation
    --early-stop K        Stop after K generations without front improvement
    --sharded             Evaluate populations through the store's shard data
                          plane (any `ayb serve` process sharing the store helps)
    --shard-size N        Candidates per shard (default: scale-dependent)
    --variation-batch N   Monte Carlo points per variation shard task
                          (default: scale-dependent; digest-neutral)
    --transport URL       tcp://HOST:PORT of an `ayb coordinate` process: run
                          and submit publish their shards there (no shared
                          filesystem needed); serve also services them
    --bind ADDR           coordinate: address to listen on (default
                          127.0.0.1:4710; port 0 picks an ephemeral port);
                          serve-http: likewise (default 127.0.0.1:4780)
    --max-connections N   serve-http: open-connection cap; further clients
                          get an immediate 503 (default 256)
    --default-quota Q:R   serve-http: per-tenant quota for tenants without an
                          override — Q max queued runs (429 beyond it), R max
                          concurrently running (0 = unlimited; default 0:0)
    --tenant-quota NAME=Q:R  serve-http: quota override for tenant NAME
                          (repeatable)
    --tenant-weight NAME=W   serve-http: scheduler weight for tenant NAME in
                          the weighted round-robin (default 1; repeatable)
    --halt-after N        Interrupt the run after N checkpoints (simulated crash)
    --workers N           Job-server worker threads (default 2)
    --drain               Serve until the queue is empty, then exit
    --shards-only         Never claim whole runs; only service shard
                          evaluation tasks (pure evaluation worker)
    --poll-ms MS          Queue poll interval in milliseconds (default 200)
    --watch SECS          top: refresh the fleet view every SECS seconds
    --keep-checkpoints K  gc: checkpoints to keep per completed run (default 1)
    --sweep-all           gc: remove *.tmp files regardless of age
    --max-age-hours H     cache gc: also evict entries older than H hours
                          (default: only entries whose result is gone)
    --digest              Print only the result's determinism digest
    --quiet               Suppress progress output

`ayb report RUN_ID` prints Tables 1-5, the Figure 7-11 data and the speed-up
comparison from a completed run, without re-running its flow.

Progress lines on stderr are structured events; set AYB_LOG=debug|info|warn|
error (default info) to change how much is shown. Durable runs persist the
same events to runs/<RUN_ID>/events.jsonl for `ayb trace`.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let parsed = match CliArgs::parse(rest) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if parsed.help {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let outcome = match command.as_str() {
        "run" => cmd_run(&parsed),
        "resume" => cmd_resume(&parsed),
        "submit" => cmd_submit(&parsed),
        "serve" => cmd_serve(&parsed),
        "serve-http" => cmd_serve_http(&parsed),
        "coordinate" => cmd_coordinate(&parsed),
        "status" => cmd_status(&parsed),
        "trace" => cmd_trace(&parsed),
        "top" => cmd_top(&parsed),
        "list" => cmd_list(&parsed),
        "show" => cmd_show(&parsed),
        "report" => cmd_report(&parsed),
        "gc" => cmd_gc(&parsed),
        "cache" => cmd_cache(&parsed),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Argument parsing (std-only)
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct CliArgs {
    positional: Vec<String>,
    store: Option<String>,
    id: Option<String>,
    scale: Option<String>,
    seed: Option<u64>,
    optimizer: Option<String>,
    threads: Option<usize>,
    early_stop: Option<usize>,
    variation_batch: Option<usize>,
    halt_after: Option<usize>,
    workers: Option<usize>,
    drain: bool,
    sharded: bool,
    shard_size: Option<usize>,
    shards_only: bool,
    transport: Option<String>,
    bind: Option<String>,
    max_connections: Option<usize>,
    default_quota: Option<String>,
    tenant_quotas: Vec<String>,
    tenant_weights: Vec<String>,
    poll_ms: Option<u64>,
    keep_checkpoints: Option<usize>,
    sweep_all: bool,
    max_age_hours: Option<u64>,
    watch: Option<u64>,
    digest: bool,
    quiet: bool,
    help: bool,
}

impl CliArgs {
    fn parse(args: &[String]) -> Result<CliArgs, String> {
        let mut parsed = CliArgs::default();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let mut value_of = |flag: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} expects a value"))
            };
            match arg.as_str() {
                "--store" => parsed.store = Some(value_of("--store")?),
                "--id" => parsed.id = Some(value_of("--id")?),
                "--scale" => parsed.scale = Some(value_of("--scale")?),
                "--seed" => parsed.seed = Some(parse_number(&value_of("--seed")?, "--seed")?),
                "--optimizer" => parsed.optimizer = Some(value_of("--optimizer")?),
                "--threads" => {
                    parsed.threads = Some(parse_number(&value_of("--threads")?, "--threads")?)
                }
                "--early-stop" => {
                    parsed.early_stop =
                        Some(parse_number(&value_of("--early-stop")?, "--early-stop")?)
                }
                "--variation-batch" => {
                    parsed.variation_batch = Some(parse_number(
                        &value_of("--variation-batch")?,
                        "--variation-batch",
                    )?)
                }
                "--halt-after" => {
                    parsed.halt_after =
                        Some(parse_number(&value_of("--halt-after")?, "--halt-after")?)
                }
                "--workers" => {
                    parsed.workers = Some(parse_number(&value_of("--workers")?, "--workers")?)
                }
                "--drain" => parsed.drain = true,
                "--sharded" => parsed.sharded = true,
                "--shard-size" => {
                    parsed.shard_size =
                        Some(parse_number(&value_of("--shard-size")?, "--shard-size")?)
                }
                "--shards-only" => parsed.shards_only = true,
                "--transport" => parsed.transport = Some(value_of("--transport")?),
                "--bind" => parsed.bind = Some(value_of("--bind")?),
                "--max-connections" => {
                    parsed.max_connections = Some(parse_number(
                        &value_of("--max-connections")?,
                        "--max-connections",
                    )?)
                }
                "--default-quota" => parsed.default_quota = Some(value_of("--default-quota")?),
                "--tenant-quota" => parsed.tenant_quotas.push(value_of("--tenant-quota")?),
                "--tenant-weight" => parsed.tenant_weights.push(value_of("--tenant-weight")?),
                "--poll-ms" => {
                    parsed.poll_ms = Some(parse_number(&value_of("--poll-ms")?, "--poll-ms")?)
                }
                "--keep-checkpoints" => {
                    parsed.keep_checkpoints = Some(parse_number(
                        &value_of("--keep-checkpoints")?,
                        "--keep-checkpoints",
                    )?)
                }
                "--sweep-all" => parsed.sweep_all = true,
                "--max-age-hours" => {
                    parsed.max_age_hours = Some(parse_number(
                        &value_of("--max-age-hours")?,
                        "--max-age-hours",
                    )?)
                }
                "--watch" => parsed.watch = Some(parse_number(&value_of("--watch")?, "--watch")?),
                "--digest" => parsed.digest = true,
                "--quiet" => parsed.quiet = true,
                "--help" | "-h" => parsed.help = true,
                flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
                positional => parsed.positional.push(positional.to_string()),
            }
        }
        Ok(parsed)
    }

    fn open_store(&self) -> Result<Store, String> {
        let dir = self
            .store
            .clone()
            .or_else(|| std::env::var("AYB_STORE").ok())
            .unwrap_or_else(|| "./ayb-store".to_string());
        Store::open(dir).map_err(|e| e.to_string())
    }

    fn required_run_id(&self) -> Result<&str, String> {
        match self.positional.as_slice() {
            [id] => Ok(id),
            [] => Err("expected a RUN_ID argument".to_string()),
            _ => Err("expected exactly one RUN_ID argument".to_string()),
        }
    }
}

fn parse_number<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag} expects a number, got `{text}`"))
}

// ---------------------------------------------------------------------------
// Progress output
// ---------------------------------------------------------------------------

/// A `[ayb …]`-style stderr note that is not tied to a flow stage: banners,
/// hints, periodic coordinator summaries. Routed through the event layer so
/// `AYB_LOG` filters it like everything else.
fn cli_note(severity: Severity, detail: impl Into<String>) {
    log_to_stderr(&Event::new(severity, "cli", "note").detail(detail));
}

// ---------------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------------

/// Builds the flow configuration and (seeded) optimiser selection from the
/// `--scale` / `--threads` / `--early-stop` / `--optimizer` / `--seed`
/// flags. Shared by `ayb run` (executes now) and `ayb submit` (queues for a
/// server); both paths therefore seed identically, and a submitted run
/// digests exactly like a directly executed one.
fn build_flow_setup(args: &CliArgs) -> Result<(FlowConfig, OptimizerConfig), String> {
    let mut config = FlowConfig::from_scale(args.scale.as_deref().unwrap_or("reduced"))?;
    if let Some(threads) = args.threads {
        config.threads = threads.max(1);
    }
    if let Some(patience) = args.early_stop {
        config.ga.early_stop = Some(EarlyStop::after_stalled_generations(patience));
    }
    if args.sharded {
        config.sharded = true;
    }
    if let Some(shard_size) = args.shard_size {
        config.shard_size = shard_size.max(1);
    }
    if let Some(batch) = args.variation_batch {
        config.variation_batch = batch.max(1);
    }
    if let Some(url) = &args.transport {
        // Fail malformed URLs here, not minutes later inside the flow (a
        // well-formed but unreachable coordinator degrades gracefully).
        ayb_net::parse_transport_url(url)?;
        config.transport = Some(url.clone());
        config.sharded = true;
    }

    let mut optimizer =
        OptimizerConfig::from_name(args.optimizer.as_deref().unwrap_or("wbga"), config.ga)?;

    // Same semantics as `FlowBuilder::with_seed`: the seed drives the
    // optimiser and the Monte Carlo engine end to end.
    if let Some(seed) = args.seed {
        config.ga.seed = seed;
        config.monte_carlo.seed = seed;
        optimizer = optimizer.with_seed(seed);
    }
    Ok((config, optimizer))
}

fn cmd_run(args: &CliArgs) -> Result<(), String> {
    if !args.positional.is_empty() {
        return Err("`ayb run` takes no positional arguments".to_string());
    }
    let store = args.open_store()?;
    let (config, optimizer) = build_flow_setup(args)?;

    let run_id = match &args.id {
        Some(id) => id.clone(),
        None => store.next_run_id().map_err(|e| e.to_string())?,
    };
    println!("run_id: {run_id}");

    let mut builder = FlowBuilder::new(config.clone())
        .with_optimizer(optimizer)
        .with_store(&store)
        .with_run_id(&run_id);
    if !args.quiet {
        builder = builder.with_observer(StderrObserver);
    }
    if let Some(count) = args.halt_after {
        builder = builder.halt_after_checkpoints(count);
    }
    finish_flow(builder.run(), &store, &run_id, &config, args.quiet)
}

fn cmd_submit(args: &CliArgs) -> Result<(), String> {
    if !args.positional.is_empty() {
        return Err("`ayb submit` takes no positional arguments".to_string());
    }
    let store = args.open_store()?;
    let (config, optimizer) = build_flow_setup(args)?;
    let seed = optimizer.seed();
    let handle = match &args.id {
        Some(id) => store.enqueue_run_with_id(id, seed, &optimizer, &config),
        None => store.enqueue_run(seed, &optimizer, &config),
    }
    .map_err(|e| e.to_string())?;
    println!("run_id: {}", handle.id());
    println!("status: queued");
    if !args.quiet {
        cli_note(Severity::Info, "execute with: ayb serve --drain");
    }
    Ok(())
}

fn cmd_serve(args: &CliArgs) -> Result<(), String> {
    if !args.positional.is_empty() {
        return Err("`ayb serve` takes no positional arguments".to_string());
    }
    let store = args.open_store()?;
    let mut config = JobServerConfig {
        drain: args.drain,
        shards_only: args.shards_only,
        ..JobServerConfig::default()
    };
    if let Some(url) = &args.transport {
        ayb_net::parse_transport_url(url)?;
        config.transport = Some(url.clone());
    }
    if let Some(workers) = args.workers {
        config.workers = workers.max(1);
    }
    if let Some(poll_ms) = args.poll_ms {
        config.poll_interval = Duration::from_millis(poll_ms.max(10));
    }

    let workers = config.workers;
    let server = JobServer::new(store, config);
    if !args.quiet {
        cli_note(
            Severity::Info,
            format!(
                "serving {} (workers: {}, mode: {}{})",
                server.store().root().display(),
                workers,
                if args.drain { "drain" } else { "poll" },
                if args.shards_only {
                    ", shards-only"
                } else {
                    ""
                },
            ),
        );
        if let Some(url) = &args.transport {
            cli_note(
                Severity::Info,
                format!("servicing network shards from {url}"),
            );
        }
        // Job lifecycle output: the server's recorder already emits one
        // structured event per JobEvent; a stderr sink (AYB_LOG-filtered)
        // renders them in the shared `[ayb …]` format.
        server.recorder().add_sink(Box::new(StderrSink::from_env()));
    }
    let report = server.run().map_err(|e| e.to_string())?;

    println!("completed: {}", report.completed.len());
    println!("interrupted: {}", report.interrupted.len());
    println!("failed: {}", report.failed.len());
    println!("skipped: {}", report.skipped.len());
    println!("requeued: {}", report.requeued.len());
    println!("shards_serviced: {}", report.shards_serviced);
    if report.shards_fenced > 0 {
        println!("shards_fenced: {}", report.shards_fenced);
    }
    if report.failed.is_empty() {
        Ok(())
    } else {
        Err(format!("runs failed: {}", report.failed.join(", ")))
    }
}

/// Parses a `QUEUED:RUNNING` quota spec.
fn parse_quota_spec(spec: &str, flag: &str) -> Result<TenantQuota, String> {
    let (queued, running) = spec
        .split_once(':')
        .ok_or_else(|| format!("{flag} expects QUEUED:RUNNING, got `{spec}`"))?;
    Ok(TenantQuota {
        max_queued: parse_number(queued, flag)?,
        max_running: parse_number(running, flag)?,
    })
}

/// Parses a `NAME=VALUE` tenant override, handing VALUE to `parse_value`.
fn parse_tenant_spec<T>(
    spec: &str,
    flag: &str,
    parse_value: impl Fn(&str) -> Result<T, String>,
) -> Result<(String, T), String> {
    let (name, value) = spec
        .split_once('=')
        .ok_or_else(|| format!("{flag} expects NAME=VALUE, got `{spec}`"))?;
    if name.is_empty() {
        return Err(format!("{flag}: empty tenant name in `{spec}`"));
    }
    Ok((name.to_string(), parse_value(value)?))
}

/// Runs the HTTP/JSON service plane until killed: admission (dedup, quotas)
/// in front of an embedded worker pool dispatching weighted round-robin
/// across tenants. All durable state is the run store itself — restart the
/// process and the dedup index and quota ledger rebuild from manifests.
fn cmd_serve_http(args: &CliArgs) -> Result<(), String> {
    if !args.positional.is_empty() {
        return Err("`ayb serve-http` takes no positional arguments".to_string());
    }
    let store = args.open_store()?;
    let mut config = SvcConfig {
        bind: args
            .bind
            .clone()
            .unwrap_or_else(|| "127.0.0.1:4780".to_string()),
        ..SvcConfig::default()
    };
    if let Some(workers) = args.workers {
        config.workers = workers; // 0 = admission-only, execution elsewhere
    }
    if let Some(cap) = args.max_connections {
        config.max_connections = cap.max(1);
    }
    if let Some(poll_ms) = args.poll_ms {
        config.poll_interval = Duration::from_millis(poll_ms.max(10));
    }
    if let Some(spec) = &args.default_quota {
        config.default_quota = parse_quota_spec(spec, "--default-quota")?;
    }
    for spec in &args.tenant_quotas {
        config
            .quotas
            .push(parse_tenant_spec(spec, "--tenant-quota", |v| {
                parse_quota_spec(v, "--tenant-quota")
            })?);
    }
    for spec in &args.tenant_weights {
        config
            .weights
            .push(parse_tenant_spec(spec, "--tenant-weight", |v| {
                parse_number::<u32>(v, "--tenant-weight")
            })?);
    }

    let workers = config.workers;
    let server =
        SvcServer::start(store, config).map_err(|e| format!("cannot start service: {e}"))?;
    // The URL line is the machine-readable hand-off (scripts and the CI
    // smoke test scrape it for the resolved port when binding port 0).
    println!("service: {}", server.url());
    if !args.quiet {
        cli_note(
            Severity::Info,
            format!(
                "serving {} over http (workers: {workers})",
                server.store().root().display()
            ),
        );
        server.recorder().add_sink(Box::new(StderrSink::from_env()));
    }
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Runs the network shard coordinator until killed. All its state is in
/// memory: killing and restarting it is the crash-recovery story (flows
/// degrade the lost shards to local evaluation; workers find no tasks until
/// epochs are re-opened), so there is nothing to persist and no store flag.
fn cmd_coordinate(args: &CliArgs) -> Result<(), String> {
    if !args.positional.is_empty() {
        return Err("`ayb coordinate` takes no positional arguments".to_string());
    }
    let bind = args.bind.as_deref().unwrap_or("127.0.0.1:4710");
    let coordinator = Coordinator::bind(bind, CoordinatorConfig::default())
        .map_err(|e| format!("cannot bind coordinator to {bind}: {e}"))?;
    // The URL line is the machine-readable hand-off (scripts and the CI
    // smoke test scrape it for the resolved port when binding port 0).
    println!("coordinator: {}", coordinator.url());
    if !args.quiet {
        // Claim/fence/epoch events stream to stderr in the shared format;
        // `AYB_LOG=debug` shows every claim and submit as it happens.
        coordinator
            .recorder()
            .add_sink(Box::new(StderrSink::from_env()));
    }
    let poll = Duration::from_millis(args.poll_ms.unwrap_or(2000).max(100));
    let mut last: Vec<String> = Vec::new();
    loop {
        std::thread::sleep(poll);
        if args.quiet {
            continue;
        }
        let lines = coordinator.describe();
        if lines != last {
            let stats = coordinator.stats();
            cli_note(
                Severity::Info,
                format!(
                    "epochs: {}, open shards: {}, claims issued: {}, fenced: {}",
                    stats.epochs, stats.open_shards, stats.claims_issued, stats.fenced_rejections
                ),
            );
            for line in &lines {
                cli_note(Severity::Info, line.clone());
            }
            last = lines;
        }
    }
}

fn cmd_status(args: &CliArgs) -> Result<(), String> {
    let store = args.open_store()?;
    match args.positional.as_slice() {
        [] => {}
        [id] => return status_of_run(&store, id),
        _ => return Err("expected at most one RUN_ID argument".to_string()),
    }

    let ids = store.run_ids().map_err(|e| e.to_string())?;
    if ids.is_empty() {
        println!("no runs in {}", store.root().display());
        return Ok(());
    }
    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    println!(
        "{:<16} {:<12} {:<26} {:>12} {:>12}",
        "RUN", "STATUS", "CLAIM", "CHECKPOINTS", "SHARDS"
    );
    for id in &ids {
        let row = store.run(id).and_then(|handle| {
            let status = handle.status()?;
            let claim = handle.claim_health()?;
            let checkpoints = handle.checkpoint_generations()?.len();
            let shards = handle.shard_summary()?;
            Ok((status, claim, checkpoints, shards))
        });
        match row {
            Ok((status, claim, checkpoints, shards)) => {
                match counts.iter_mut().find(|(name, _)| *name == status.as_str()) {
                    Some((_, count)) => *count += 1,
                    None => counts.push((status.as_str(), 1)),
                }
                let claim = match claim {
                    Some((claim, health)) => {
                        format!("{} ({})", claim.owner, render_claim_health(health))
                    }
                    None => "-".to_string(),
                };
                let shards = if shards.tasks > 0 {
                    // Label what stage the open shard work belongs to: the
                    // stages are sequential, so open epochs are all one kind.
                    let kind = if shards.variation_epochs > 0 {
                        " var"
                    } else {
                        " eval"
                    };
                    format!("{}/{}{kind}", shards.completed, shards.tasks)
                } else {
                    "-".to_string()
                };
                println!(
                    "{id:<16} {:<12} {claim:<26} {checkpoints:>12} {shards:>12}",
                    status.as_str()
                );
            }
            Err(error) => println!("{id:<16} <unreadable: {error}>"),
        }
    }
    let summary: Vec<String> = counts
        .iter()
        .map(|(name, count)| format!("{name}: {count}"))
        .collect();
    println!("totals: {}", summary.join(", "));
    Ok(())
}

fn render_claim_health(health: ClaimHealth) -> &'static str {
    match health {
        ClaimHealth::Alive => "alive",
        ClaimHealth::Hung => "hung?",
        ClaimHealth::Dead => "stale",
    }
}

fn status_of_run(store: &Store, id: &str) -> Result<(), String> {
    let handle = store.run(id).map_err(|e| e.to_string())?;
    let status = handle.status().map_err(|e| e.to_string())?;
    println!("run_id: {id}");
    println!("status: {status}");
    match handle.claim_health().map_err(|e| e.to_string())? {
        Some((claim, health)) => println!(
            "claim: {} (pid {} on {}, {})",
            claim.owner,
            claim.pid,
            claim.host,
            render_claim_health(health)
        ),
        None => println!("claim: none"),
    }
    let checkpoints = handle.checkpoint_generations().map_err(|e| e.to_string())?;
    println!("checkpoints: {}", checkpoints.len());
    // Bytes on disk, so a write-amplification regression shows here.
    println!("checkpoint_bytes: {}", handle.checkpoint_bytes());
    if let Some(bytes) = handle.result_bytes() {
        println!("result_bytes: {bytes}");
    }
    let shards = handle.shard_summary().map_err(|e| e.to_string())?;
    if shards.tasks > 0 {
        let stage = if shards.variation_epochs > 0 {
            "variation"
        } else {
            "evaluation"
        };
        println!(
            "shards: {}/{} {stage} done ({} claimed, {} epochs open)",
            shards.completed, shards.tasks, shards.claimed, shards.epochs
        );
    } else {
        println!("shards: none open");
    }
    let variation = handle
        .variation_checkpoint_indices()
        .map_err(|e| e.to_string())?;
    if !variation.is_empty() {
        println!("variation_checkpoints: {}", variation.len());
    }
    // Service-plane annotations (runs admitted through `ayb serve-http`):
    // tenant, dedup key, priority lane, cancellation marker. Dedup hits are
    // counted in `ayb_svc_dedup_hits_total` on `/v1/metrics`, cache hits in
    // the result cache (`ayb cache status`).
    for key in ["tenant", "priority", "submission_digest", "cancelled"] {
        if let Ok(Some(value)) = handle.manifest_extra(key) {
            match value {
                serde::Value::Str(text) => println!("{key}: {text}"),
                serde::Value::Int(n) => println!("{key}: {n}"),
                serde::Value::UInt(n) => println!("{key}: {n}"),
                serde::Value::Bool(b) => println!("{key}: {b}"),
                other => println!(
                    "{key}: {}",
                    serde_json::to_string(&other).unwrap_or_default()
                ),
            }
        }
    }
    if let Ok(Some(value)) = handle.transport_report_value() {
        use serde::Deserialize;
        if let Ok(report) = ayb_core::TransportReport::from_value(&value) {
            println!("transport: {}", report.transport);
            if report.requests > 0 {
                println!(
                    "transport_requests: {} ({:.2}s round-trip)",
                    report.requests, report.request_seconds
                );
            }
            if report.fenced_rejections > 0 {
                println!("transport_fenced_writes: {}", report.fenced_rejections);
            }
            for incident in &report.incidents {
                println!(
                    "transport_degraded: {} shard {} -> local ({})",
                    incident.stage, incident.shard, incident.detail
                );
            }
        }
    }
    print_run_health(&handle);
    println!(
        "result: {}",
        if handle.has_result() {
            "present"
        } else {
            "none"
        }
    );
    Ok(())
}

/// The compact timing/health block of `ayb status RUN_ID`: stage durations
/// (from the persisted result), shard round-trip latency p50/p95 (from the
/// run's `events.jsonl`) and fence/degrade counts. Every line is best-effort
/// — a run without a result or telemetry simply prints fewer lines.
fn print_run_health(handle: &ayb_store::RunHandle) {
    if handle.has_result() {
        if let Ok(result) = handle.load_result::<FlowResult>() {
            let timings = &result.timings;
            println!(
                "stage_seconds: optimize {:.2}, variation {:.2}, model {:.2} (total {:.2})",
                timings.optimization.as_secs_f64(),
                timings.monte_carlo.as_secs_f64(),
                timings.model_build.as_secs_f64(),
                timings.total().as_secs_f64()
            );
            if timings.shards_fenced > 0 || timings.shards_degraded > 0 {
                println!(
                    "shard_incidents: {} fenced, {} degraded to local",
                    timings.shards_fenced, timings.shards_degraded
                );
            }
        }
    }
    let Ok(events) = ayb_obs::read_events(&handle.events_path()) else {
        return;
    };
    // Shard round-trip latencies live in SHARD_REQUEST events' `value`
    // field; fold them into a histogram for the quantile summary.
    let mut latency = Histogram::with_bounds(ayb_obs::LATENCY_BUCKETS_SECONDS);
    for event in &events {
        if event.kind == event_kind::SHARD_REQUEST {
            if let Some(seconds) = event.value {
                latency.observe(seconds);
            }
        }
    }
    if latency.count() > 0 {
        println!(
            "shard_latency: {} requests, p50 {:.0} ms, p95 {:.0} ms",
            latency.count(),
            latency.quantile(0.5).unwrap_or(0.0) * 1e3,
            latency.quantile(0.95).unwrap_or(0.0) * 1e3
        );
    }
    let fenced = ayb_obs::trace::count_kind(&events, event_kind::SHARD_FENCED);
    let degraded = ayb_obs::trace::count_kind(&events, event_kind::SHARD_DEGRADED);
    let checkpoints = ayb_obs::trace::count_kind(&events, event_kind::CHECKPOINT);
    println!(
        "events: {} recorded ({} checkpoints, {} fenced, {} degraded); \
         trace with: ayb trace {}",
        events.len(),
        checkpoints,
        fenced,
        degraded,
        handle.id()
    );
}

/// Reconstructs a run's timeline from its `events.jsonl`: stages,
/// checkpoints, epochs, and per-shard claim → fence → steal chains. The
/// event stream is validated first — a malformed or out-of-order file is an
/// error, not a garbled trace.
fn cmd_trace(args: &CliArgs) -> Result<(), String> {
    let store = args.open_store()?;
    let run_id = args.required_run_id()?;
    let handle = store.run(run_id).map_err(|e| e.to_string())?;
    let path = handle.events_path();
    if !path.exists() {
        return Err(format!(
            "no telemetry for `{run_id}`: {} does not exist (runs record \
             events.jsonl while executing durably)",
            path.display()
        ));
    }
    let events = ayb_obs::read_events(&path)?;
    ayb_obs::check_monotonic_per_pid(&events)
        .map_err(|e| format!("events.jsonl failed validation: {e}"))?;
    println!("run_id: {run_id}");
    println!("events: {} ({} attempts)", events.len(), {
        let attempts = ayb_obs::trace::attempts(&events).len();
        attempts.max(1)
    });
    for line in ayb_obs::trace::render_trace(&events) {
        println!("{line}");
    }
    Ok(())
}

/// One `ayb top` refresh: every run's status/claim/shard row from the store,
/// plus — when `--transport` points at a live coordinator — its counters and
/// full metrics text (the same text the `Metrics` wire request serves).
fn top_once(store: &Store, transport: Option<&str>) -> Result<(), String> {
    if let Some(url) = transport {
        let addr = ayb_net::parse_transport_url(url)?;
        let tcp = TcpTransport::connect(addr);
        let stats = tcp
            .coordinator_stats()
            .map_err(|e| format!("coordinator at {url} unreachable: {e}"))?;
        println!(
            "coordinator: {url} — {} epochs, {} open shards, {} claims issued, {} fenced",
            stats.epochs, stats.open_shards, stats.claims_issued, stats.fenced_rejections
        );
        let metrics = tcp.coordinator_metrics().map_err(|e| e.to_string())?;
        for line in metrics.lines() {
            // The full registry is noisy; surface the fleet-health core
            // (request totals/latency, claims, fences, gauges).
            if line.starts_with("ayb_coord_") && !line.contains("_bucket") {
                println!("  {line}");
            }
        }
    }
    if let Ok(cache) = ResultCache::open(store) {
        if let Ok(entries) = cache.entries() {
            if !entries.is_empty() {
                let hits: u64 = entries.iter().map(|e| e.hits).sum();
                println!(
                    "result_cache: {} completed digests, {} resubmissions served",
                    entries.len(),
                    hits
                );
            }
        }
    }
    let ids = store.run_ids().map_err(|e| e.to_string())?;
    if ids.is_empty() {
        println!("no runs in {}", store.root().display());
        return Ok(());
    }
    println!(
        "{:<16} {:<12} {:<26} {:>12} {:>12} {:>8}",
        "RUN", "STATUS", "CLAIM", "CHECKPOINTS", "SHARDS", "EVENTS"
    );
    for id in &ids {
        let row = store.run(id).and_then(|handle| {
            let status = handle.status()?;
            let claim = handle.claim_health()?;
            let checkpoints = handle.checkpoint_generations()?.len();
            let shards = handle.shard_summary()?;
            let events = std::fs::read_to_string(handle.events_path())
                .map(|text| text.lines().count())
                .unwrap_or(0);
            Ok((status, claim, checkpoints, shards, events))
        });
        match row {
            Ok((status, claim, checkpoints, shards, events)) => {
                let claim = match claim {
                    Some((claim, health)) => {
                        format!("{} ({})", claim.owner, render_claim_health(health))
                    }
                    None => "-".to_string(),
                };
                let shards = if shards.tasks > 0 {
                    format!("{}/{}", shards.completed, shards.tasks)
                } else {
                    "-".to_string()
                };
                println!(
                    "{id:<16} {:<12} {claim:<26} {checkpoints:>12} {shards:>12} {events:>8}",
                    status.as_str()
                );
            }
            Err(error) => println!("{id:<16} <unreadable: {error}>"),
        }
    }
    Ok(())
}

/// Live fleet view: the store's runs (with claim health and shard progress)
/// and, with `--transport`, the coordinator's scraped metrics. `--watch S`
/// refreshes every `S` seconds until interrupted.
fn cmd_top(args: &CliArgs) -> Result<(), String> {
    if !args.positional.is_empty() {
        return Err("`ayb top` takes no positional arguments".to_string());
    }
    let store = args.open_store()?;
    let transport = args.transport.as_deref();
    match args.watch {
        None => top_once(&store, transport),
        Some(seconds) => loop {
            top_once(&store, transport)?;
            println!();
            std::thread::sleep(Duration::from_secs(seconds.max(1)));
        },
    }
}

/// How old a `*.tmp` file must be before `ayb gc` removes it (unless
/// `--sweep-all`): long enough that no live writer is mid-rename.
const GC_TMP_MIN_AGE: Duration = Duration::from_secs(60);

fn cmd_gc(args: &CliArgs) -> Result<(), String> {
    if !args.positional.is_empty() {
        return Err("`ayb gc` takes no positional arguments".to_string());
    }
    let store = args.open_store()?;
    let keep = args.keep_checkpoints.unwrap_or(1).max(1);
    let min_age = if args.sweep_all {
        Duration::ZERO
    } else {
        GC_TMP_MIN_AGE
    };

    let swept = store.sweep_tmp_files(min_age).map_err(|e| e.to_string())?;
    let mut pruned = 0usize;
    let mut pruned_runs = 0usize;
    let mut shard_epochs = 0usize;
    for id in store.run_ids().map_err(|e| e.to_string())? {
        let Ok(handle) = store.run(&id) else { continue };
        // Only completed runs are pruned; anything still resumable keeps
        // its full checkpoint history.
        if handle.status().ok() != Some(RunStatus::Completed) {
            continue;
        }
        let removed = handle.prune_checkpoints(keep).map_err(|e| e.to_string())?;
        // Per-point variation checkpoints of a completed run are dead
        // weight too: result.json supersedes them.
        let variation = handle
            .sweep_variation_checkpoints()
            .map_err(|e| e.to_string())?;
        if !removed.is_empty() || variation > 0 {
            pruned += removed.len() + variation;
            pruned_runs += 1;
        }
        // Shard epochs of a completed run are dead weight: the submitting
        // flow assembled (or abandoned) every batch long ago.
        shard_epochs += handle.sweep_shards().map_err(|e| e.to_string())?;
    }
    println!("tmp_files_removed: {}", swept.len());
    println!(
        "checkpoints_pruned: {pruned} (across {pruned_runs} completed runs, keeping last {keep})"
    );
    println!("shard_epochs_swept: {shard_epochs}");
    Ok(())
}

/// `ayb cache [status|gc]` — inspect or sweep the store's persistent result
/// cache (`cache/entries/<digest>.json` and `cache/results/<digest>.json`),
/// which the service plane consults so identical resubmissions of completed
/// digests never re-execute. Each entry's hit count is the one record of how
/// many resubmissions it answered.
fn cmd_cache(args: &CliArgs) -> Result<(), String> {
    let store = args.open_store()?;
    let cache = ResultCache::open(&store).map_err(|e| e.to_string())?;
    let action = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("status");
    match action {
        "status" => {
            let entries = cache.entries().map_err(|e| e.to_string())?;
            let hits: u64 = entries.iter().map(|e| e.hits).sum();
            println!("entries: {}", entries.len());
            println!("hits_served: {hits}");
            for entry in &entries {
                let result = if cache.has_result(entry) {
                    "present"
                } else {
                    "missing"
                };
                println!(
                    "{} -> {} ({} hits, result {result})",
                    entry.digest, entry.run_id, entry.hits
                );
            }
            Ok(())
        }
        "gc" => {
            let max_age = args.max_age_hours.map(|h| Duration::from_secs(h * 3600));
            let report = cache.gc(max_age).map_err(|e| e.to_string())?;
            println!("entries_removed: {}", report.entries_removed);
            println!("entries_kept: {}", report.entries_kept);
            println!("blobs_removed: {}", report.blobs_removed);
            Ok(())
        }
        other => Err(format!("unknown cache action `{other}` (status|gc)")),
    }
}

fn cmd_resume(args: &CliArgs) -> Result<(), String> {
    let store = args.open_store()?;
    let run_id = args.required_run_id()?.to_string();

    let manifest: Manifest<FlowConfig> = store
        .run(&run_id)
        .and_then(|handle| handle.manifest())
        .map_err(|e| e.to_string())?;
    if manifest.status == RunStatus::Completed {
        return Err(format!(
            "run `{run_id}` is already completed; see `ayb show {run_id}`"
        ));
    }

    let mut builder = FlowBuilder::resume(&store, &run_id).map_err(|e| e.to_string())?;
    if !args.quiet {
        match builder.resume_generation() {
            Some(generation) => cli_note(
                Severity::Info,
                format!("resuming {run_id} from generation {generation}"),
            ),
            None => cli_note(
                Severity::Warn,
                format!("no usable checkpoint for {run_id}; restarting from scratch"),
            ),
        }
        builder = builder.with_observer(StderrObserver);
    }
    if let Some(count) = args.halt_after {
        builder = builder.halt_after_checkpoints(count);
    }

    finish_flow(builder.run(), &store, &run_id, &manifest.flow, args.quiet)
}

/// Shared tail of `run` and `resume`: report completion, an intentional
/// halt, or a failure.
fn finish_flow(
    outcome: Result<FlowResult, AybError>,
    store: &Store,
    run_id: &str,
    config: &FlowConfig,
    quiet: bool,
) -> Result<(), String> {
    match outcome {
        Ok(result) => {
            let summary = result.summary(config);
            println!("status: completed");
            println!("evaluations: {}", summary.evaluation_samples);
            println!("pareto_points: {}", summary.pareto_points);
            println!("analysed_points: {}", summary.analysed_pareto_points);
            println!("cpu_time_seconds: {:.2}", summary.cpu_time_seconds);
            println!("mc_work_seconds: {:.2}", summary.mc_work_seconds);
            println!("digest: {:016x}", result.determinism_digest());
            if !quiet {
                cli_note(Severity::Info, format!("inspect with: ayb show {run_id}"));
            }
            Ok(())
        }
        Err(AybError::Checkpoint(CheckpointError::Halted { generation })) => {
            let (checkpoints, variation) = store
                .run(run_id)
                .and_then(|handle| {
                    Ok((
                        handle.checkpoint_generations()?.len(),
                        handle.variation_checkpoint_indices()?.len(),
                    ))
                })
                .unwrap_or((0, 0));
            println!("status: interrupted");
            // `Halted { generation }` counts what the halted stage had
            // persisted: optimiser generations when the optimisation was
            // interrupted, analysed Pareto points when the variation stage
            // was. Variation checkpoints only exist once stage 4 started,
            // so they tell the two apart.
            if variation > 0 {
                println!("halted_at_variation_point: {generation}");
            } else {
                println!("halted_at_generation: {generation}");
            }
            println!("checkpoints: {checkpoints}");
            if variation > 0 {
                println!("variation_checkpoints: {variation}");
            }
            if !quiet {
                cli_note(
                    Severity::Info,
                    format!("continue with: ayb resume {run_id}"),
                );
            }
            Ok(())
        }
        Err(error) => Err(error.to_string()),
    }
}

fn cmd_list(args: &CliArgs) -> Result<(), String> {
    let store = args.open_store()?;
    let ids = store.run_ids().map_err(|e| e.to_string())?;
    if ids.is_empty() {
        println!("no runs in {}", store.root().display());
        return Ok(());
    }
    println!(
        "{:<16} {:<12} {:<14} {:>10} {:>12} {:>7}",
        "RUN", "STATUS", "OPTIMIZER", "SEED", "CHECKPOINTS", "RESULT"
    );
    for id in ids {
        // A process killed between creating the run directory and writing
        // the manifest leaves an unreadable run behind; list it instead of
        // failing the whole listing.
        let row = store.run(&id).and_then(|handle| {
            let manifest: Manifest<FlowConfig> = handle.manifest()?;
            let checkpoints = handle.checkpoint_generations()?;
            Ok((manifest, checkpoints, handle.has_result()))
        });
        match row {
            Ok((manifest, checkpoints, has_result)) => println!(
                "{:<16} {:<12} {:<14} {:>10} {:>12} {:>7}",
                id,
                manifest.status.as_str(),
                manifest.optimizer.name(),
                manifest.seed,
                checkpoints.len(),
                if has_result { "yes" } else { "no" }
            ),
            Err(error) => println!("{id:<16} <unreadable: {error}>"),
        }
    }
    Ok(())
}

fn cmd_show(args: &CliArgs) -> Result<(), String> {
    let store = args.open_store()?;
    let run_id = args.required_run_id()?;
    let handle = store.run(run_id).map_err(|e| e.to_string())?;
    let manifest: Manifest<FlowConfig> = handle.manifest().map_err(|e| e.to_string())?;

    if args.digest {
        let result: FlowResult = handle.load_result().map_err(|e| e.to_string())?;
        println!("{:016x}", result.determinism_digest());
        return Ok(());
    }

    println!("run_id: {}", manifest.run_id);
    println!("status: {}", manifest.status);
    println!("seed: {}", manifest.seed);
    println!("optimizer: {}", manifest.optimizer.name());
    println!(
        "evaluation_budget: {}",
        manifest.optimizer.evaluation_budget()
    );
    match manifest.optimizer.early_stop() {
        Some(early_stop) => println!("early_stop_patience: {}", early_stop.effective_patience()),
        None => println!("early_stop_patience: none"),
    }
    println!(
        "ga: {}x{} (pop x gens)",
        manifest.flow.ga.population_size, manifest.flow.ga.generations
    );
    println!("mc_samples: {}", manifest.flow.monte_carlo.samples);
    println!("created_unix: {}", manifest.created_unix);
    println!("updated_unix: {}", manifest.updated_unix);

    let checkpoints = handle.checkpoint_generations().map_err(|e| e.to_string())?;
    match (checkpoints.first(), checkpoints.last()) {
        (Some(first), Some(last)) => {
            println!("checkpoints: {} (gen {first}..{last})", checkpoints.len())
        }
        _ => println!("checkpoints: 0"),
    }

    if handle.has_result() {
        let result: FlowResult = handle.load_result().map_err(|e| e.to_string())?;
        let summary = result.summary(&manifest.flow);
        println!("result: present");
        println!("  evaluations: {}", summary.evaluation_samples);
        println!("  pareto_points: {}", summary.pareto_points);
        println!("  analysed_points: {}", summary.analysed_pareto_points);
        println!("  cpu_time_seconds: {:.2}", summary.cpu_time_seconds);
        println!("  mc_work_seconds: {:.2}", summary.mc_work_seconds);
        println!("  digest: {:016x}", result.determinism_digest());
    } else {
        println!("result: none (resume with `ayb resume {run_id}`)");
    }
    Ok(())
}

/// Prints the paper's tables and figure data from a completed run's stored
/// manifest and result; only the verification simulations they need run.
fn cmd_report(args: &CliArgs) -> Result<(), String> {
    let store = args.open_store()?;
    let run_id = args.required_run_id()?;
    let (config, result) = store
        .run(run_id)
        .and_then(|handle| {
            let manifest: Manifest<FlowConfig> = handle.manifest()?;
            Ok((manifest.flow, handle.load_result::<FlowResult>()?))
        })
        .map_err(|e| format!("cannot report run `{run_id}`: {e}"))?;
    let report = ayb_core::report::render_flow_report(&result, &config);
    print!("{report}");
    Ok(())
}
