//! The `mfgcp` command-line tool: solve mean-field equilibria, run
//! finite-population market simulations (optionally observed live),
//! and serve saved equilibria over TCP from the shell.
//!
//! ```sh
//! mfgcp solve --eta1 2 --salvage 1 --save-equilibrium eq.bin
//! mfgcp simulate --scheme mfg-cp --edps 50 --mobility
//! mfgcp serve --artifact eq.bin --addr 127.0.0.1:7171
//! mfgcp query --t 0.5 --h 1.2 --q 0.3
//! mfgcp simulate --observe 127.0.0.1:7181 &
//! mfgcp watch --filter market.slot
//! mfgcp ctl --pause && mfgcp ctl --step 3 && mfgcp ctl --snapshot
//! ```

use std::sync::Arc;
use std::time::Duration;

use mfgcp::cli::{parse, Command, CtlAction, QueryAction, Scheme, HELP};
use mfgcp::ctl::{CtlClient, CtlRequest, CtlServer};
use mfgcp::obs::{json::Json, BroadcastSink};
use mfgcp::prelude::*;
use mfgcp::serve::{Client, PolicyServer, ServeConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{HELP}");
            std::process::exit(2);
        }
    };
    match command {
        Command::Help => print!("{HELP}"),
        Command::Version => println!("{}", mfgcp::serve::build_info()),
        Command::Solve {
            params,
            telemetry,
            save_equilibrium,
        } => run_solve(*params, telemetry.as_deref(), save_equilibrium.as_deref()),
        Command::Simulate {
            config,
            scheme,
            mobility,
            telemetry,
            observe,
            observe_hold,
        } => run_simulate(
            *config,
            scheme,
            mobility,
            telemetry.as_deref(),
            observe.as_deref(),
            observe_hold,
        ),
        Command::Serve {
            artifact,
            addr,
            threads,
            read_timeout_secs,
            telemetry,
            watch_artifact,
        } => run_serve(
            &artifact,
            &addr,
            threads,
            read_timeout_secs,
            telemetry.as_deref(),
            watch_artifact,
        ),
        Command::Query { addr, action } => run_query(&addr, action),
        Command::Watch {
            addr,
            filters,
            raw,
            max_events,
        } => run_watch(&addr, filters, raw, max_events),
        Command::Ctl { addr, action } => run_ctl(&addr, action),
    }
}

/// Open the `--telemetry` JSONL sink, exiting with a diagnostic when the
/// path is not writable. `None` stays the no-op recorder.
fn open_recorder(telemetry: Option<&str>) -> RecorderHandle {
    match telemetry {
        None => RecorderHandle::noop(),
        Some(path) => match JsonlSink::create(path) {
            Ok(sink) => RecorderHandle::new(Arc::new(sink)),
            Err(e) => {
                eprintln!("error: cannot create telemetry file `{path}`: {e}");
                std::process::exit(1);
            }
        },
    }
}

fn run_solve(params: Params, telemetry: Option<&str>, save_equilibrium: Option<&str>) {
    println!(
        "Solving MFG-CP equilibrium: grid {}x{}, {} steps, eta1 = {}, w5 = {}, salvage = {}",
        params.grid_h,
        params.grid_q,
        params.time_steps,
        params.eta1,
        params.w5,
        params.terminal_value_weight
    );
    let recorder = open_recorder(telemetry);
    let solver = match MfgSolver::new(params) {
        Ok(s) => s.with_recorder(recorder.clone()),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let ctx = ContentContext::from_params(solver.params());
    let eq = solver.solve_with(&vec![ctx; solver.params().time_steps], None);
    recorder.flush();
    println!(
        "Converged: {} ({} iterations, final residual {:.2e})",
        eq.report.converged,
        eq.report.iterations,
        eq.report.final_residual()
    );
    let prices = eq.price_series();
    println!(
        "Price p_k(t): {:.3} -> {:.3}  (p_hat = {})",
        prices[0],
        prices[prices.len() - 1],
        eq.params.p_hat
    );
    let means = eq.mean_remaining_space();
    println!(
        "Mean remaining space: {:.3} -> {:.3}",
        means[0],
        means[means.len() - 1]
    );
    println!("Accumulated utility: {:.3}", eq.accumulated_utility());
    println!("Deviation gap (Nash check): {:.4}", eq.deviation_gap(11));
    println!("\nPolicy x*(t, h = mean, q):");
    println!(
        "{:>6} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "t", "q=0.1", "q=0.3", "q=0.5", "q=0.7", "q=0.9"
    );
    let h = eq.params.upsilon_h;
    let qk = eq.params.q_size;
    for frac in [0.0, 0.25, 0.5, 0.75] {
        let t = frac * eq.params.t_horizon;
        print!("{t:>6.2}");
        for qf in [0.1, 0.3, 0.5, 0.7, 0.9] {
            print!(" {:>8.3}", eq.policy_at(t, h, qf * qk));
        }
        println!();
    }
    if let Some(path) = save_equilibrium {
        match mfgcp::serve::artifact::save(&eq, std::path::Path::new(path)) {
            Ok(()) => println!("\nSaved equilibrium artifact to {path}"),
            Err(e) => {
                eprintln!("error: cannot save equilibrium to `{path}`: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn run_serve(
    artifact: &str,
    addr: &str,
    threads: usize,
    read_timeout_secs: u64,
    telemetry: Option<&str>,
    watch_artifact: bool,
) {
    let path = std::path::Path::new(artifact);
    // Memory-map and serve in place, through the gate every hot swap
    // passes: an unconverged solve is refused, and the one O(payload)
    // pass up front is the integrity check.
    let store = match mfgcp::serve::ArtifactStore::open_for_serving(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot load artifact `{artifact}`: {e}");
            std::process::exit(1);
        }
    };
    let header = store.header();
    println!(
        "Opened artifact {artifact}{}: format v{}, fingerprint {:016x}, {} steps, grid {}x{}, built by {}",
        if store.is_mapped() { " (mmap)" } else { "" },
        header.format_version,
        header.fingerprint,
        header.time_steps,
        header.grid_h,
        header.grid_q,
        header.build_info,
    );
    let recorder = open_recorder(telemetry);
    let config = ServeConfig {
        threads,
        read_timeout: Duration::from_secs(read_timeout_secs.max(1)),
    };
    let handle = match PolicyServer::start_store(addr, store, config, recorder) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot bind `{addr}`: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "Serving on {} (stop with `mfgcp query --addr {} --shutdown`)",
        handle.local_addr(),
        handle.local_addr()
    );
    let watcher = watch_artifact.then(|| {
        let swap = handle.swap_handle();
        let path = path.to_path_buf();
        println!("Watching {artifact} for changes (hot swap on rewrite)");
        std::thread::spawn(move || watch_artifact_loop(&swap, &path))
    });
    handle.join();
    if let Some(watcher) = watcher {
        let _ = watcher.join();
    }
    println!("Server stopped.");
}

/// `--watch-artifact` poll loop: swap the artifact into the running
/// server whenever its file modification time changes. A failed swap
/// (e.g. a torn copy racing the poll) is reported and retried on the
/// next change; the server keeps answering from the old generation.
fn watch_artifact_loop(swap: &mfgcp::serve::SwapHandle, path: &std::path::Path) {
    const POLL: Duration = Duration::from_millis(500);
    let mtime_of = |p: &std::path::Path| std::fs::metadata(p).and_then(|m| m.modified()).ok();
    let mut last = mtime_of(path);
    while swap.is_running() {
        std::thread::sleep(POLL);
        let now = mtime_of(path);
        if now.is_some() && now != last {
            last = now;
            match swap.swap_from_path(path) {
                Ok(generation) => {
                    println!("Artifact changed on disk; now serving generation {generation}");
                }
                Err(e) => {
                    eprintln!("warning: artifact changed but swap failed (still serving the previous generation): {e}");
                }
            }
        }
    }
}

fn run_query(addr: &str, action: QueryAction) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to `{addr}`: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = client.set_timeout(Some(Duration::from_secs(10))) {
        eprintln!("error: cannot set socket timeout: {e}");
        std::process::exit(1);
    }
    let outcome = match action {
        QueryAction::Point { t, h, q } => client.query(t, h, q).map(|p| {
            println!("x*({t}, {h}, {q}) = {}", p.x);
            println!("p*({t})       = {}", p.price);
            println!("q_bar({t})    = {}", p.q_bar);
        }),
        QueryAction::Ping => client.ping().map(|()| println!("pong from {addr}")),
        QueryAction::Info => client.info().map(|info| {
            println!("fingerprint: {:016x}", info.fingerprint);
            println!("time_steps:  {}", info.time_steps);
            println!("grid:        {}x{}", info.grid_h, info.grid_q);
            println!("generation:  {}", info.generation);
            println!("build_info:  {}", info.build_info);
        }),
        QueryAction::Shutdown => client
            .shutdown_server()
            .map(|()| println!("server at {addr} acknowledged shutdown")),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run_simulate(
    config: SimConfig,
    scheme: Scheme,
    mobility: bool,
    telemetry: Option<&str>,
    observe: Option<&str>,
    observe_hold: bool,
) {
    let mut config = config;
    if mobility {
        config.mobility = Some(mfgcp::net::RandomWaypoint::default());
    }
    println!(
        "Simulating {}: M = {}, J = {}, K = {}, {} epochs x {} slots, seed {}{}",
        scheme.name(),
        config.num_edps,
        config.num_requesters,
        config.num_contents,
        config.epochs,
        config.slots_per_epoch,
        config.seed,
        if mobility { ", mobile requesters" } else { "" }
    );
    // The control plane reprices with the policy's own parameters, which
    // differ from the run's under MFG (no paid sharing).
    let (policy, policy_params) = match scheme.build(config.params.clone()) {
        Ok(built) => built,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    // `--observe` swaps the plain recorder for a broadcast sink (still
    // teeing `--telemetry` to disk) and spawns the control server before
    // the run so a held simulation is reachable from slot 0.
    let (recorder, server) = match observe {
        None => (open_recorder(telemetry), None),
        Some(addr) => {
            let sink = Arc::new(match telemetry {
                None => BroadcastSink::new(),
                Some(path) => match JsonlSink::create(path) {
                    Ok(inner) => BroadcastSink::tee(Arc::new(inner)),
                    Err(e) => {
                        eprintln!("error: cannot create telemetry file `{path}`: {e}");
                        std::process::exit(1);
                    }
                },
            });
            let server =
                match CtlServer::spawn(addr, policy_params, Arc::clone(&sink), observe_hold) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("error: cannot bind control plane on `{addr}`: {e}");
                        std::process::exit(1);
                    }
                };
            println!(
                "Control plane on {} ({}; attach with `mfgcp watch` / `mfgcp ctl`)",
                server.local_addr(),
                if observe_hold {
                    "held before slot 0"
                } else {
                    "free-running"
                }
            );
            (RecorderHandle::new(Arc::clone(&sink)), Some(server))
        }
    };
    let mut sim = match Simulation::new(config, policy) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    sim.set_recorder(recorder.clone());
    if let Some(server) = &server {
        sim.set_control(Arc::clone(server.plane()) as Arc<dyn mfgcp::sim::EngineControl>);
    }
    let report = sim.run();
    recorder.flush();
    if let Some(server) = server {
        server.shutdown();
    }
    let (c1, c2, c3) = report.case_totals();
    println!("\n{:<22} {:>12}", "metric", "value");
    println!("{:<22} {:>12.3}", "mean utility", report.mean_utility());
    println!(
        "{:<22} {:>12.3}",
        "mean trading income",
        report.mean_trading_income()
    );
    println!(
        "{:<22} {:>12.3}",
        "mean staleness cost",
        report.mean_staleness_cost()
    );
    println!(
        "{:<22} {:>12.3}",
        "mean sharing benefit",
        report.mean_sharing_benefit()
    );
    println!("{:<22} {:>12}", "cases (1/2/3)", format!("{c1}/{c2}/{c3}"));
    if let Some(audit) = report.audit {
        println!("\n{audit}");
        if !audit.is_clean() {
            for violation in audit.violations.iter().take(10) {
                eprintln!("audit violation [{}]: {violation}", violation.invariant());
            }
            if audit.violations.len() > 10 {
                eprintln!("... and {} more", audit.violations.len() - 10);
            }
            std::process::exit(1);
        }
    }
}

/// Request timeout for `watch` / `ctl` exchanges.
const CTL_TIMEOUT: Duration = Duration::from_secs(10);

/// Wire-subscriber queue depth for `watch` (frames beyond it are
/// dropped and counted, never blocking the simulation).
const WATCH_CAPACITY: u32 = 4096;

fn connect_ctl(addr: &str) -> CtlClient {
    match CtlClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to control plane at `{addr}`: {e}");
            std::process::exit(1);
        }
    }
}

fn run_watch(addr: &str, filters: Vec<String>, raw: bool, max_events: Option<u64>) {
    let mut client = connect_ctl(addr);
    let label = if filters.is_empty() {
        "all series".to_string()
    } else {
        filters.join(", ")
    };
    if let Err(e) = client.request_json(
        &CtlRequest::Subscribe {
            capacity: WATCH_CAPACITY,
            filters,
        },
        CTL_TIMEOUT,
    ) {
        eprintln!("error: subscribe failed: {e}");
        std::process::exit(1);
    }
    eprintln!("watching {addr} ({label}); ctrl-c to stop");
    let mut shown = 0u64;
    'stream: loop {
        if max_events.is_some_and(|limit| shown >= limit) {
            break;
        }
        match client.poll_event(Duration::from_millis(500)) {
            Some(line) => {
                print_event(&line, raw);
                shown += 1;
            }
            None => {
                // Idle half-second: distinguish "run still going" from
                // "run finished" (drain stragglers, then stop). A lost
                // connection here is the server tearing down after the
                // run — the normal end of the stream, not an error.
                let finished = match client.request_json(&CtlRequest::Status, CTL_TIMEOUT) {
                    Ok(status) => status.get("finished").and_then(|j| j.as_bool()) == Some(true),
                    Err(_) => {
                        eprintln!("stream closed by server");
                        true
                    }
                };
                if finished {
                    while let Some(line) = client.poll_event(Duration::from_millis(100)) {
                        if max_events.is_some_and(|limit| shown >= limit) {
                            break 'stream;
                        }
                        print_event(&line, raw);
                        shown += 1;
                    }
                    break;
                }
            }
        }
    }
    let _ = client.request(&CtlRequest::Detach, CTL_TIMEOUT);
    eprintln!("{shown} event(s)");
}

/// Print one streamed event line: raw JSONL, or the minimal ANSI live
/// view (dim sequence number, cyan series name, inline payload).
fn print_event(line: &str, raw: bool) {
    if raw {
        println!("{line}");
        return;
    }
    let Ok(ev) = mfgcp::obs::json::parse(line) else {
        println!("{line}");
        return;
    };
    let seq = ev.get("seq").and_then(|j| j.as_u64()).unwrap_or(0);
    let name = ev.get("name").and_then(|j| j.as_str()).unwrap_or("?");
    let kind = ev.get("kind").and_then(|j| j.as_str()).unwrap_or("?");
    let mut payload = String::new();
    if let Some(value) = ev.get("value").and_then(|j| j.as_f64()) {
        payload.push_str(&format!(" value={value:.6}"));
    }
    if let Some(Json::Obj(fields)) = ev.get("fields") {
        for (key, val) in fields {
            match val {
                Json::Num(x) => payload.push_str(&format!(" {key}={x:.6}")),
                Json::Str(s) => payload.push_str(&format!(" {key}={s}")),
                Json::Bool(b) => payload.push_str(&format!(" {key}={b}")),
                _ => {}
            }
        }
    }
    println!("\x1b[2m{seq:>8}\x1b[0m \x1b[36m{name}\x1b[0m \x1b[2m{kind}\x1b[0m{payload}");
}

fn run_ctl(addr: &str, action: CtlAction) {
    // The swap verb speaks the *policy server* protocol, not the
    // control plane's.
    if let CtlAction::SwapArtifact(path) = &action {
        run_swap_artifact(addr, path);
        return;
    }
    let mut client = connect_ctl(addr);
    let request = match &action {
        CtlAction::Pause => CtlRequest::Pause,
        CtlAction::Resume => CtlRequest::Resume,
        CtlAction::Step(n) => CtlRequest::Step { n: *n },
        CtlAction::Snapshot => CtlRequest::Snapshot,
        CtlAction::Fork => CtlRequest::Fork,
        CtlAction::ForkStatus(id) => CtlRequest::ForkStatus { id: *id },
        CtlAction::Status => CtlRequest::Status,
        CtlAction::Ping => CtlRequest::Ping,
        CtlAction::Reprice => CtlRequest::Reprice,
        CtlAction::Shutdown => CtlRequest::Shutdown,
        CtlAction::SwapArtifact(_) => unreachable!("handled above"),
    };
    if action == CtlAction::Ping {
        match client.request(&request, CTL_TIMEOUT) {
            Ok(_) => println!("pong from {addr}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    match client.request_json(&request, CTL_TIMEOUT) {
        Ok(doc) => println!("{}", doc.to_json_string()),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// `ctl --swap-artifact`: push a hot swap to a running policy server.
fn run_swap_artifact(addr: &str, path: &str) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot connect to policy server at `{addr}`: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = client.set_timeout(Some(CTL_TIMEOUT)) {
        eprintln!("error: cannot set socket timeout: {e}");
        std::process::exit(1);
    }
    match client.swap_artifact(path) {
        Ok((generation, fingerprint)) => {
            println!("server at {addr} now serves {path}");
            println!("generation:  {generation}");
            println!("fingerprint: {fingerprint:016x}");
        }
        Err(e) => {
            eprintln!("error: swap failed (the server keeps its current artifact): {e}");
            std::process::exit(1);
        }
    }
}
