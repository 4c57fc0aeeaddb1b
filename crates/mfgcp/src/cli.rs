//! Command-line interface for the `mfgcp` binary.
//!
//! Hand-rolled flag parsing (the approved dependency list has no argument
//! parser): `mfgcp <command> [--flag value]...` with six commands:
//!
//! * `solve` — compute one mean-field equilibrium, print its summary and
//!   optionally persist it (`--save-equilibrium FILE`);
//! * `simulate` — run the finite-population market under a scheme,
//!   optionally exposing the live control plane (`--observe ADDR`);
//! * `serve` — load a saved equilibrium artifact and answer policy /
//!   pricing queries over TCP;
//! * `query` — ask a running server for `(x*, p*, q̄₋)`, ping it, fetch
//!   its info, or shut it down;
//! * `watch` — stream subscribed telemetry series from an observed run;
//! * `ctl` — steer an observed run: pause, step, resume, snapshot,
//!   seed-fork, status, shutdown.
//!
//! The parsing layer is pure (string slices in, [`Command`] out) so it is
//! unit-testable without spawning processes.

use mfgcp_core::Params;
use mfgcp_sim::baselines::{MfgCpPolicy, MostPopularCaching, RandomReplacement, Udcs};
use mfgcp_sim::{CachingPolicy, SimConfig, SimError};

/// Default address for `serve` and `query` when `--addr` is omitted.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7171";

/// Default address for `simulate --observe`, `watch` and `ctl` when the
/// address is omitted (distinct port so a policy server and an observed
/// simulation can share a host).
pub const DEFAULT_CTL_ADDR: &str = "127.0.0.1:7181";

/// Which placement scheme to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Full MFG-CP with sharing.
    MfgCp,
    /// MFG without sharing.
    Mfg,
    /// UDCS baseline.
    Udcs,
    /// Most-popular caching baseline.
    Mpc,
    /// Random replacement baseline.
    Rr,
}

impl Scheme {
    fn parse(s: &str) -> Result<Self, CliError> {
        match s.to_ascii_lowercase().as_str() {
            "mfg-cp" | "mfgcp" => Ok(Self::MfgCp),
            "mfg" => Ok(Self::Mfg),
            "udcs" => Ok(Self::Udcs),
            "mpc" => Ok(Self::Mpc),
            "rr" => Ok(Self::Rr),
            other => Err(CliError::BadValue {
                flag: "--scheme".into(),
                value: other.into(),
                expected: "one of mfg-cp, mfg, udcs, mpc, rr",
            }),
        }
    }

    /// The display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::MfgCp => "MFG-CP",
            Self::Mfg => "MFG",
            Self::Udcs => "UDCS",
            Self::Mpc => "MPC",
            Self::Rr => "RR",
        }
    }

    /// Build the scheme's policy for a run under `params`, together with
    /// the parameters its equilibria are solved under (MFG solves at
    /// `p̄ = 0`; the baselines solve nothing and hand `params` back). A
    /// control plane attached to the run reprices with the latter.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation failures.
    pub fn build(self, params: Params) -> Result<(Box<dyn CachingPolicy>, Params), SimError> {
        let solved = |p: MfgCpPolicy| {
            let params = p.params().clone();
            (Box::new(p) as Box<dyn CachingPolicy>, params)
        };
        Ok(match self {
            Self::MfgCp => solved(MfgCpPolicy::new(params)?),
            Self::Mfg => solved(MfgCpPolicy::without_sharing(params)?),
            Self::Udcs => (Box::new(Udcs::default()), params),
            Self::Mpc => (Box::new(MostPopularCaching::default()), params),
            Self::Rr => (Box::new(RandomReplacement), params),
        })
    }
}

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `mfgcp solve [...]`: one mean-field equilibrium.
    Solve {
        /// Model parameters after flag overrides.
        params: Box<Params>,
        /// Telemetry JSONL output path (`--telemetry`), if requested.
        telemetry: Option<String>,
        /// Artifact output path (`--save-equilibrium`), if requested.
        save_equilibrium: Option<String>,
    },
    /// `mfgcp simulate [...]`: a finite-population market run.
    Simulate {
        /// Simulator configuration after flag overrides.
        config: Box<SimConfig>,
        /// Scheme to run.
        scheme: Scheme,
        /// Enable random-waypoint requester mobility.
        mobility: bool,
        /// Telemetry JSONL output path (`--telemetry`), if requested.
        telemetry: Option<String>,
        /// Control-plane listen address (`--observe`), if requested.
        observe: Option<String>,
        /// Park the run before slot 0 until a client resumes or steps it
        /// (`--observe-hold`; implies `--observe`).
        observe_hold: bool,
    },
    /// `mfgcp serve [...]`: serve a saved equilibrium over TCP.
    Serve {
        /// Path of the artifact to load (`--artifact`).
        artifact: String,
        /// Listen address (`--addr`).
        addr: String,
        /// Worker thread count (`--threads`, 0 = auto).
        threads: usize,
        /// Per-connection read timeout in seconds (`--read-timeout`).
        read_timeout_secs: u64,
        /// Telemetry JSONL output path (`--telemetry`), if requested.
        telemetry: Option<String>,
        /// Poll the artifact file and hot-swap it into the running
        /// server whenever it changes (`--watch-artifact`).
        watch_artifact: bool,
    },
    /// `mfgcp query [...]`: one request against a running server.
    Query {
        /// Server address (`--addr`).
        addr: String,
        /// What to ask.
        action: QueryAction,
    },
    /// `mfgcp watch [...]`: stream live telemetry from an observed run.
    Watch {
        /// Control-plane address (`--addr`).
        addr: String,
        /// Series-name prefixes to subscribe to (`--filter`, repeatable;
        /// empty = everything).
        filters: Vec<String>,
        /// Print raw JSONL instead of the rendered live view (`--raw`).
        raw: bool,
        /// Stop after this many events (`--max-events`), if requested.
        max_events: Option<u64>,
    },
    /// `mfgcp ctl [...]`: one control verb against an observed run.
    Ctl {
        /// Control-plane address (`--addr`).
        addr: String,
        /// The verb to issue.
        action: CtlAction,
    },
    /// `mfgcp help` or `--help`.
    Help,
    /// `mfgcp --version`: print version and build information.
    Version,
}

/// What a `mfgcp query` invocation asks the server.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryAction {
    /// Policy query at `(t, h, q)` (`--t`, `--h`, `--q`).
    Point {
        /// Query time.
        t: f64,
        /// Popularity-ratio coordinate.
        h: f64,
        /// Cache-occupancy coordinate.
        q: f64,
    },
    /// Liveness probe (`--ping`).
    Ping,
    /// Server/artifact metadata (`--info`).
    Info,
    /// Graceful shutdown request (`--shutdown`).
    Shutdown,
}

/// What a `mfgcp ctl` invocation asks — control-plane verbs against an
/// observed simulation, plus the policy-server hot swap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtlAction {
    /// Park the run at the next slot boundary (`--pause`).
    Pause,
    /// Release a paused run (`--resume`).
    Resume,
    /// Run exactly `n` more slots, then park (`--step N`).
    Step(u32),
    /// Fetch the latest slot-boundary snapshot (`--snapshot`).
    Snapshot,
    /// Seed-fork a detached what-if solve from the live density
    /// (`--fork`).
    Fork,
    /// Poll a previously started fork (`--fork-status ID`).
    ForkStatus(u32),
    /// Gate and sink status (`--status`).
    Status,
    /// Liveness probe (`--ping`).
    Ping,
    /// Detach the gate and stop the control server (`--shutdown`); the
    /// simulation runs to completion unobserved.
    Shutdown,
    /// Re-run Alg. 2 warm-started from the live density and hot-swap the
    /// equilibrium into the running policy at the next slot boundary
    /// (`--reprice`). The swap is generation-counted like the served
    /// artifact swap.
    Reprice,
    /// Hot-swap the served equilibrium artifact on a running *policy*
    /// server (`--swap-artifact FILE.eq`; the path is resolved on the
    /// server host). Targets the policy port, not the control plane.
    SwapArtifact(String),
}

/// CLI parsing errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// Unknown subcommand.
    UnknownCommand(String),
    /// Unknown flag for the subcommand.
    UnknownFlag(String),
    /// Flag present without a value.
    MissingValue(String),
    /// A flag the subcommand requires was absent.
    MissingFlag(&'static str),
    /// Value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// Offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
}

impl core::fmt::Display for CliError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command `{c}` (try `mfgcp help`)")
            }
            CliError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            CliError::MissingValue(flag) => write!(f, "flag `{flag}` needs a value"),
            CliError::MissingFlag(flag) => write!(f, "required flag `{flag}` is missing"),
            CliError::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(f, "bad value `{value}` for `{flag}`: expected {expected}")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// The help text.
pub const HELP: &str = "\
mfgcp - joint mobile edge caching and pricing via mean-field games

USAGE:
    mfgcp solve    [--eta1 X] [--w5 X] [--q-size X] [--requests X]
                   [--time-steps N] [--grid-h N] [--grid-q N]
                   [--salvage G] [--lambda0-mean X] [--threads N]
                   [--damping X] [--telemetry FILE.jsonl]
                   [--save-equilibrium FILE.eq]
    mfgcp simulate [--scheme mfg-cp|mfg|udcs|mpc|rr] [--edps N]
                   [--requesters N] [--contents K] [--epochs E]
                   [--slots N] [--seed S] [--mobility] [--audit]
                   [--audit-sample N] [--reprice-slot N]
                   [--telemetry FILE.jsonl]
                   [--observe HOST:PORT] [--observe-hold]
                   (plus all `solve` flags for the game parameters)
    mfgcp serve    --artifact FILE.eq [--addr HOST:PORT] [--threads N]
                   [--read-timeout SECS] [--watch-artifact]
                   [--telemetry FILE.jsonl]
    mfgcp query    [--addr HOST:PORT]
                   (--t X --h X --q X | --ping | --info | --shutdown)
    mfgcp watch    [--addr HOST:PORT] [--filter PREFIX]... [--raw]
                   [--max-events N]
    mfgcp ctl      [--addr HOST:PORT]
                   (--pause | --resume | --step N | --snapshot | --fork
                    | --fork-status ID | --reprice | --status | --ping
                    | --shutdown | --swap-artifact FILE.eq)
    mfgcp help
    mfgcp --version

`solve` computes one mean-field equilibrium (Alg. 2) and prints the
policy, price trajectory and utility breakdown; `--save-equilibrium`
persists it as a checksummed binary artifact. `simulate` runs the
finite-population market (Alg. 1 lines 11-14) under the chosen scheme.
`serve` memory-maps a saved artifact and answers (t, h, q) ->
(x*, p*, q_bar) queries over TCP (default address 127.0.0.1:7171) until
a `--shutdown` query stops it. `query` issues one request against a
running server. The served artifact can be replaced without a restart:
`mfgcp ctl --swap-artifact FILE.eq` pushes a new artifact (path resolved
on the server host) and `serve --watch-artifact` polls the artifact file
and swaps automatically when it changes. Swaps are generational —
in-flight replies finish on the artifact they started with, and
`query --info` reports the current generation.

`--telemetry FILE` streams structured events (solver iterations, PDE
health, market clearing, mobility, serving) to FILE as one JSON object
per line; see DESIGN.md for the event schema. Recording never changes
results.

`--audit` runs the mfgcp-check conservation auditor alongside the
simulation (money conservation, case tallies, Eq. (10) reconciliation,
FPK mass gating); the process exits nonzero if any invariant is
violated. `--audit-sample N` implies `--audit` but runs the per-slot
checks on every Nth slot only — the cumulative I1-I3 totals still see
every slot, which keeps the gate affordable at production scale.

The channel layer holds one link per requester: its serving EDP and
that link's fading, the only channel state the market reads. Memory and
per-step cost are flat in the EDP count.

The per-slot trade loop resolves flattened (EDP, content) entries on
scoped threads — bit-identical for any thread count.

A single `solve` runs on one thread; `--threads` does not change it.
In `simulate`, `--threads N` (0 = one per core) sizes the per-epoch
fan-out of the independent per-content equilibrium solves and the
per-EDP market phases; results are bit-identical for any N.

The Picard loop is accelerated: a coarse-to-fine continuation ladder
hands a prolonged near-fixed-point iterate to the fine grid, which opens
at the `--damping` cap (default 1.0, the full best-response step). A
growing best-response gap resets the relaxation weight to 0.2, and it
adapts back up toward the cap while the gap shrinks.
`simulate --reprice-slot N` re-runs Alg. 2 at global
slot boundary N, warm-started from the stale equilibrium and the live
occupancy column, and hot-swaps the result into the policy
(generation-counted, audited under `--audit`).

`--observe HOST:PORT` attaches the live control plane (default address
127.0.0.1:7181): `mfgcp watch` streams subscribed telemetry series and
`mfgcp ctl` pauses, steps, resumes, snapshots, seed-forks — and
reprices — the run. `ctl --reprice` re-solves the equilibrium from the
latest snapshot's occupancy (warm-started after the first call) and
stages it for a generation-counted hot-swap at the next slot boundary;
pause first for a deterministic landing slot.
`--observe-hold` parks the run before slot 0 until a client steps or
resumes it (and implies `--observe` on the default address). Control
gates only *when* slots execute, never *what* they compute: an
observed, paused, stepped, or forked run is bit-identical to a free
run — `--reprice` is the one sanctioned exception, an explicit,
audited, generation-counted divergence point (`sim.reprice.swap`).
`watch --filter PREFIX` subscribes to series-name prefixes (e.g.
`market.slot`, `net.shard`); `--raw` prints unrendered JSONL.
";

fn parse_f64(flag: &str, value: &str) -> Result<f64, CliError> {
    value.parse().map_err(|_| CliError::BadValue {
        flag: flag.into(),
        value: value.into(),
        expected: "a number",
    })
}

fn parse_usize(flag: &str, value: &str) -> Result<usize, CliError> {
    value.parse().map_err(|_| CliError::BadValue {
        flag: flag.into(),
        value: value.into(),
        expected: "a non-negative integer",
    })
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, CliError> {
    value.parse().map_err(|_| CliError::BadValue {
        flag: flag.into(),
        value: value.into(),
        expected: "a non-negative integer",
    })
}

/// The argument after `flag`. Parsers call it only once they know
/// `flag` takes a value, so a trailing unknown flag is reported as
/// unknown, not as missing its value.
fn value_of<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, CliError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| CliError::MissingValue(flag.to_string()))
}

/// Apply a game-parameter flag, reading its value from `it`; returns
/// `false`, reading nothing, if the flag is not a parameter flag (so the
/// caller can report it).
fn apply_param_flag(
    params: &mut Params,
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
) -> Result<bool, CliError> {
    let mut value = || value_of(it, flag);
    match flag {
        "--eta1" => params.eta1 = parse_f64(flag, value()?)?,
        "--w5" => params.w5 = parse_f64(flag, value()?)?,
        "--q-size" => params.q_size = parse_f64(flag, value()?)?,
        "--requests" => params.requests = parse_f64(flag, value()?)?,
        "--time-steps" => params.time_steps = parse_usize(flag, value()?)?,
        "--grid-h" => params.grid_h = parse_usize(flag, value()?)?,
        "--grid-q" => params.grid_q = parse_usize(flag, value()?)?,
        "--salvage" => params.terminal_value_weight = parse_f64(flag, value()?)?,
        "--damping" => params.damping = parse_f64(flag, value()?)?,
        "--lambda0-mean" => params.lambda0_mean = parse_f64(flag, value()?)?,
        "--threads" => params.worker_threads = parse_usize(flag, value()?)?,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parse an argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some(command) = args.first() else {
        return Ok(Command::Help);
    };
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "version" | "--version" | "-V" => Ok(Command::Version),
        "solve" => {
            let mut params = Params::default();
            let mut telemetry = None;
            let mut save_equilibrium = None;
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--telemetry" => telemetry = Some(value_of(&mut it, flag)?.to_string()),
                    "--save-equilibrium" => {
                        save_equilibrium = Some(value_of(&mut it, flag)?.to_string());
                    }
                    _ => {
                        if !apply_param_flag(&mut params, flag, &mut it)? {
                            return Err(CliError::UnknownFlag(flag.clone()));
                        }
                    }
                }
            }
            Ok(Command::Solve {
                params: Box::new(params),
                telemetry,
                save_equilibrium,
            })
        }
        "simulate" => {
            let mut config = SimConfig {
                num_edps: 30,
                num_requesters: 120,
                num_contents: 6,
                epochs: 2,
                slots_per_epoch: 30,
                params: Params {
                    num_edps: 30,
                    time_steps: 16,
                    grid_h: 8,
                    grid_q: 32,
                    ..Params::default()
                },
                ..SimConfig::default()
            };
            let mut scheme = Scheme::MfgCp;
            let mut mobility = false;
            let mut telemetry = None;
            let mut observe = None;
            let mut observe_hold = false;
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                if flag == "--mobility" {
                    mobility = true;
                    continue;
                }
                if flag == "--observe-hold" {
                    observe_hold = true;
                    continue;
                }
                if flag == "--audit" {
                    config.audit = true;
                    continue;
                }
                let mut value = || value_of(&mut it, flag);
                match flag.as_str() {
                    "--scheme" => scheme = Scheme::parse(value()?)?,
                    "--telemetry" => telemetry = Some(value()?.to_string()),
                    "--observe" => observe = Some(value()?.to_string()),
                    "--edps" => {
                        config.num_edps = parse_usize(flag, value()?)?;
                        config.params.num_edps = config.num_edps;
                    }
                    "--requesters" => config.num_requesters = parse_usize(flag, value()?)?,
                    "--contents" => config.num_contents = parse_usize(flag, value()?)?,
                    "--epochs" => config.epochs = parse_usize(flag, value()?)?,
                    "--slots" => config.slots_per_epoch = parse_usize(flag, value()?)?,
                    "--seed" => config.seed = parse_u64(flag, value()?)?,
                    "--reprice-slot" => {
                        config.reprice_slot = Some(parse_usize(flag, value()?)?);
                    }
                    "--audit-sample" => {
                        let value = value()?;
                        let n = parse_usize(flag, value)?;
                        if n == 0 {
                            return Err(CliError::BadValue {
                                flag: flag.clone(),
                                value: value.to_string(),
                                expected: "a stride of at least 1 (1 = audit every slot)",
                            });
                        }
                        config.audit = true;
                        config.audit_sample = n;
                    }
                    "--threads" => {
                        config.worker_threads = parse_usize(flag, value()?)?;
                        config.params.worker_threads = config.worker_threads;
                    }
                    other => {
                        if !apply_param_flag(&mut config.params, other, &mut it)? {
                            return Err(CliError::UnknownFlag(flag.clone()));
                        }
                    }
                }
            }
            // `--observe-hold` without an address observes on the default
            // port: a held run with no way to attach would hang forever.
            if observe_hold && observe.is_none() {
                observe = Some(DEFAULT_CTL_ADDR.to_string());
            }
            Ok(Command::Simulate {
                config: Box::new(config),
                scheme,
                mobility,
                telemetry,
                observe,
                observe_hold,
            })
        }
        "serve" => {
            let mut artifact = None;
            let mut addr = DEFAULT_ADDR.to_string();
            let mut threads = 0usize;
            let mut read_timeout_secs = 30u64;
            let mut telemetry = None;
            let mut watch_artifact = false;
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                if flag == "--watch-artifact" {
                    watch_artifact = true;
                    continue;
                }
                let mut value = || value_of(&mut it, flag);
                match flag.as_str() {
                    "--artifact" => artifact = Some(value()?.to_string()),
                    "--addr" => addr = value()?.to_string(),
                    "--threads" => threads = parse_usize(flag, value()?)?,
                    "--read-timeout" => read_timeout_secs = parse_u64(flag, value()?)?,
                    "--telemetry" => telemetry = Some(value()?.to_string()),
                    _ => return Err(CliError::UnknownFlag(flag.clone())),
                }
            }
            let artifact = artifact.ok_or(CliError::MissingFlag("--artifact"))?;
            Ok(Command::Serve {
                artifact,
                addr,
                threads,
                read_timeout_secs,
                telemetry,
                watch_artifact,
            })
        }
        "query" => {
            let mut addr = DEFAULT_ADDR.to_string();
            let mut probe = None;
            let (mut t, mut h, mut q) = (None, None, None);
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--ping" => {
                        probe = Some(QueryAction::Ping);
                        continue;
                    }
                    "--info" => {
                        probe = Some(QueryAction::Info);
                        continue;
                    }
                    "--shutdown" => {
                        probe = Some(QueryAction::Shutdown);
                        continue;
                    }
                    _ => {}
                }
                let mut value = || value_of(&mut it, flag);
                match flag.as_str() {
                    "--addr" => addr = value()?.to_string(),
                    "--t" => t = Some(parse_f64(flag, value()?)?),
                    "--h" => h = Some(parse_f64(flag, value()?)?),
                    "--q" => q = Some(parse_f64(flag, value()?)?),
                    _ => return Err(CliError::UnknownFlag(flag.clone())),
                }
            }
            let action = match probe {
                Some(action) => action,
                None => QueryAction::Point {
                    t: t.ok_or(CliError::MissingFlag("--t"))?,
                    h: h.ok_or(CliError::MissingFlag("--h"))?,
                    q: q.ok_or(CliError::MissingFlag("--q"))?,
                },
            };
            Ok(Command::Query { addr, action })
        }
        "watch" => {
            let mut addr = DEFAULT_CTL_ADDR.to_string();
            let mut filters = Vec::new();
            let mut raw = false;
            let mut max_events = None;
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                if flag == "--raw" {
                    raw = true;
                    continue;
                }
                let mut value = || value_of(&mut it, flag);
                match flag.as_str() {
                    "--addr" => addr = value()?.to_string(),
                    "--filter" => filters.push(value()?.to_string()),
                    "--max-events" => max_events = Some(parse_u64(flag, value()?)?),
                    _ => return Err(CliError::UnknownFlag(flag.clone())),
                }
            }
            Ok(Command::Watch {
                addr,
                filters,
                raw,
                max_events,
            })
        }
        "ctl" => {
            let mut addr: Option<String> = None;
            let mut action = None;
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--pause" => {
                        action = Some(CtlAction::Pause);
                        continue;
                    }
                    "--resume" => {
                        action = Some(CtlAction::Resume);
                        continue;
                    }
                    "--snapshot" => {
                        action = Some(CtlAction::Snapshot);
                        continue;
                    }
                    "--fork" => {
                        action = Some(CtlAction::Fork);
                        continue;
                    }
                    "--status" => {
                        action = Some(CtlAction::Status);
                        continue;
                    }
                    "--ping" => {
                        action = Some(CtlAction::Ping);
                        continue;
                    }
                    "--shutdown" => {
                        action = Some(CtlAction::Shutdown);
                        continue;
                    }
                    "--reprice" => {
                        action = Some(CtlAction::Reprice);
                        continue;
                    }
                    _ => {}
                }
                let mut value = || value_of(&mut it, flag);
                match flag.as_str() {
                    "--addr" => addr = Some(value()?.to_string()),
                    "--swap-artifact" => {
                        action = Some(CtlAction::SwapArtifact(value()?.to_string()));
                    }
                    "--step" => {
                        let value = value()?;
                        let n = parse_u64(flag, value)?;
                        if n == 0 || n > u64::from(u32::MAX) {
                            return Err(CliError::BadValue {
                                flag: flag.clone(),
                                value: value.to_string(),
                                expected: "a slot count between 1 and 2^32-1",
                            });
                        }
                        action = Some(CtlAction::Step(n as u32));
                    }
                    "--fork-status" => {
                        action = Some(CtlAction::ForkStatus(parse_u64(flag, value()?)? as u32));
                    }
                    _ => return Err(CliError::UnknownFlag(flag.clone())),
                }
            }
            let action = action.ok_or(CliError::MissingFlag(
                "--pause|--resume|--step|--snapshot|--fork|--fork-status|--reprice|--status|\
                 --ping|--shutdown|--swap-artifact",
            ))?;
            // `--swap-artifact` talks to the *policy* server, every other
            // verb to the simulation control plane; the omitted-`--addr`
            // default follows the target.
            let addr = addr.unwrap_or_else(|| {
                if matches!(action, CtlAction::SwapArtifact(_)) {
                    DEFAULT_ADDR.to_string()
                } else {
                    DEFAULT_CTL_ADDR.to_string()
                }
            });
            Ok(Command::Ctl { addr, action })
        }
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_and_help_yield_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn solve_applies_parameter_flags() {
        let cmd = parse(&argv("solve --eta1 2.5 --time-steps 20 --salvage 1.5")).unwrap();
        match cmd {
            Command::Solve {
                params,
                telemetry,
                save_equilibrium,
            } => {
                assert_eq!(params.eta1, 2.5);
                assert_eq!(params.time_steps, 20);
                assert_eq!(params.terminal_value_weight, 1.5);
                assert_eq!(telemetry, None);
                assert_eq!(save_equilibrium, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn telemetry_flag_parses_on_both_commands() {
        let cmd = parse(&argv("solve --telemetry out.jsonl --eta1 2")).unwrap();
        match cmd {
            Command::Solve {
                params, telemetry, ..
            } => {
                assert_eq!(telemetry.as_deref(), Some("out.jsonl"));
                assert_eq!(params.eta1, 2.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(&argv("simulate --scheme rr --telemetry run.jsonl")).unwrap();
        match cmd {
            Command::Simulate {
                scheme, telemetry, ..
            } => {
                assert_eq!(scheme, Scheme::Rr);
                assert_eq!(telemetry.as_deref(), Some("run.jsonl"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse(&argv("solve --telemetry")),
            Err(CliError::MissingValue(f)) if f == "--telemetry"
        ));
    }

    #[test]
    fn simulate_parses_scheme_population_and_mobility() {
        let cmd = parse(&argv(
            "simulate --scheme udcs --edps 50 --contents 4 --seed 9 --mobility --eta1 3",
        ))
        .unwrap();
        match cmd {
            Command::Simulate {
                config,
                scheme,
                mobility,
                ..
            } => {
                assert_eq!(scheme, Scheme::Udcs);
                assert_eq!(config.num_edps, 50);
                assert_eq!(config.params.num_edps, 50, "kept consistent for Eq. (5)");
                assert_eq!(config.num_contents, 4);
                assert_eq!(config.seed, 9);
                assert_eq!(config.params.eta1, 3.0);
                assert!(mobility);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn audit_flag_enables_the_auditor() {
        let cmd = parse(&argv("simulate --scheme mpc --audit --slots 5")).unwrap();
        match cmd {
            Command::Simulate { config, .. } => {
                assert!(config.audit);
                assert_eq!(config.slots_per_epoch, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(&argv("simulate --scheme mpc")).unwrap();
        match cmd {
            Command::Simulate { config, .. } => assert!(!config.audit),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn audit_sample_implies_audit_and_rejects_zero() {
        let cmd = parse(&argv("simulate --scheme mpc --audit-sample 16")).unwrap();
        match cmd {
            Command::Simulate { config, .. } => {
                assert!(config.audit, "--audit-sample must imply --audit");
                assert_eq!(config.audit_sample, 16);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse(&argv("simulate --audit-sample 0")),
            Err(CliError::BadValue { flag, .. }) if flag == "--audit-sample"
        ));
        // Default stride checks every slot.
        match parse(&argv("simulate --audit")).unwrap() {
            Command::Simulate { config, .. } => assert_eq!(config.audit_sample, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Every sub-command checks that a flag is known before it reads the
    /// flag's value, so a trailing unknown flag is named as unknown.
    #[test]
    fn trailing_unknown_flags_are_unknown_not_missing_a_value() {
        for line in [
            "solve --bogus",
            "solve --eta1 2 --bogus",
            "simulate --bogus",
            "serve --artifact a.eq --bogus",
            "query --bogus",
            "watch --bogus",
            "ctl --pause --bogus",
        ] {
            assert!(
                matches!(parse(&argv(line)), Err(CliError::UnknownFlag(flag)) if flag == "--bogus"),
                "{line}"
            );
        }
        assert!(matches!(
            parse(&argv("solve --eta1")),
            Err(CliError::MissingValue(flag)) if flag == "--eta1"
        ));
    }

    #[test]
    fn channel_layout_flags_reach_the_network_config() {
        // The channel holds one serving link per requester, so no flag
        // sets its layout: the interferer budget and the dense layout are
        // refused, naming the flag, and a plain run keeps the default
        // network config.
        for line in [
            "simulate --k-int 8",
            "simulate --k-int 0",
            "simulate --dense-channel",
        ] {
            let flag = line.split(' ').nth(1).unwrap();
            assert!(
                matches!(parse(&argv(line)), Err(CliError::UnknownFlag(f)) if f == flag),
                "{line}"
            );
        }
        match parse(&argv("simulate")).unwrap() {
            Command::Simulate { config, .. } => {
                assert_eq!(config.network, SimConfig::default().network);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn adaptive_k_int_flag_parses() {
        // The adaptive interferer budget is retired: its flag is refused,
        // naming the flag, so a stale script fails loudly instead of
        // silently running a different channel model.
        for line in ["simulate --adaptive-k-int", "simulate --adaptive-k-int 1"] {
            assert!(
                matches!(
                    parse(&argv(line)),
                    Err(CliError::UnknownFlag(flag)) if flag == "--adaptive-k-int"
                ),
                "{line}"
            );
        }
    }

    #[test]
    fn damping_flag_reaches_the_solver_params() {
        match parse(&argv("solve --damping 0.7")).unwrap() {
            Command::Solve { params, .. } => {
                assert_eq!(params.damping, 0.7);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("simulate --damping 0.7 --slots 3")).unwrap() {
            Command::Simulate { config, .. } => {
                assert_eq!(config.params.damping, 0.7);
                assert_eq!(config.slots_per_epoch, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reprice_slot_flag_reaches_the_sim_config() {
        match parse(&argv("simulate --reprice-slot 12 --slots 20")).unwrap() {
            Command::Simulate { config, .. } => {
                assert_eq!(config.reprice_slot, Some(12));
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("simulate")).unwrap() {
            Command::Simulate { config, .. } => {
                assert_eq!(config.reprice_slot, None, "repricing is opt-in");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse(&argv("simulate --reprice-slot nope")),
            Err(CliError::BadValue { flag, .. }) if flag == "--reprice-slot"
        ));
    }

    #[test]
    fn threads_flag_reaches_both_layers() {
        let cmd = parse(&argv("solve --threads 4")).unwrap();
        match cmd {
            Command::Solve { params, .. } => assert_eq!(params.worker_threads, 4),
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(&argv("simulate --threads 2")).unwrap();
        match cmd {
            Command::Simulate { config, .. } => {
                assert_eq!(config.worker_threads, 2);
                assert_eq!(config.params.worker_threads, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn solve_accepts_save_equilibrium() {
        let cmd = parse(&argv("solve --save-equilibrium eq.bin --eta1 2")).unwrap();
        match cmd {
            Command::Solve {
                save_equilibrium, ..
            } => assert_eq!(save_equilibrium.as_deref(), Some("eq.bin")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn version_parses_in_all_spellings() {
        for s in ["version", "--version", "-V"] {
            assert_eq!(parse(&argv(s)).unwrap(), Command::Version);
        }
    }

    #[test]
    fn serve_requires_an_artifact_and_applies_defaults() {
        assert!(matches!(
            parse(&argv("serve")),
            Err(CliError::MissingFlag("--artifact"))
        ));
        let cmd = parse(&argv("serve --artifact eq.bin")).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                artifact: "eq.bin".into(),
                addr: DEFAULT_ADDR.into(),
                threads: 0,
                read_timeout_secs: 30,
                telemetry: None,
                watch_artifact: false,
            }
        );
        let cmd = parse(&argv(
            "serve --artifact eq.bin --addr 0.0.0.0:9000 --threads 8 \
             --read-timeout 5 --telemetry s.jsonl --watch-artifact",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                artifact: "eq.bin".into(),
                addr: "0.0.0.0:9000".into(),
                threads: 8,
                read_timeout_secs: 5,
                telemetry: Some("s.jsonl".into()),
                watch_artifact: true,
            }
        );
    }

    #[test]
    fn query_parses_point_and_probe_actions() {
        let cmd = parse(&argv("query --t 0.5 --h 1.2 --q 0.3")).unwrap();
        assert_eq!(
            cmd,
            Command::Query {
                addr: DEFAULT_ADDR.into(),
                action: QueryAction::Point {
                    t: 0.5,
                    h: 1.2,
                    q: 0.3
                },
            }
        );
        for (s, action) in [
            ("query --ping", QueryAction::Ping),
            ("query --info", QueryAction::Info),
            ("query --addr 1.2.3.4:9 --shutdown", QueryAction::Shutdown),
        ] {
            match parse(&argv(s)).unwrap() {
                Command::Query { action: got, .. } => assert_eq!(got, action),
                other => panic!("unexpected {other:?}"),
            }
        }
        // A point query missing a coordinate names the absent flag.
        assert!(matches!(
            parse(&argv("query --t 0.5 --h 1.0")),
            Err(CliError::MissingFlag("--q"))
        ));
        assert!(matches!(
            parse(&argv("query")),
            Err(CliError::MissingFlag("--t"))
        ));
    }

    #[test]
    fn observe_flags_parse_and_hold_implies_observe() {
        match parse(&argv("simulate --observe 0.0.0.0:9100 --scheme mpc")).unwrap() {
            Command::Simulate {
                observe,
                observe_hold,
                ..
            } => {
                assert_eq!(observe.as_deref(), Some("0.0.0.0:9100"));
                assert!(!observe_hold);
            }
            other => panic!("unexpected {other:?}"),
        }
        // A held run with no address would be unreachable forever, so
        // `--observe-hold` alone observes on the default control port.
        match parse(&argv("simulate --observe-hold")).unwrap() {
            Command::Simulate {
                observe,
                observe_hold,
                ..
            } => {
                assert_eq!(observe.as_deref(), Some(DEFAULT_CTL_ADDR));
                assert!(observe_hold);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("simulate")).unwrap() {
            Command::Simulate {
                observe,
                observe_hold,
                ..
            } => {
                assert_eq!(observe, None, "unobserved is the default");
                assert!(!observe_hold);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse(&argv("simulate --observe")),
            Err(CliError::MissingValue(f)) if f == "--observe"
        ));
    }

    #[test]
    fn watch_parses_filters_raw_and_max_events() {
        assert_eq!(
            parse(&argv("watch")).unwrap(),
            Command::Watch {
                addr: DEFAULT_CTL_ADDR.into(),
                filters: vec![],
                raw: false,
                max_events: None,
            }
        );
        assert_eq!(
            parse(&argv(
                "watch --addr 1.2.3.4:9 --filter market.slot --filter net.shard \
                 --raw --max-events 10",
            ))
            .unwrap(),
            Command::Watch {
                addr: "1.2.3.4:9".into(),
                filters: vec!["market.slot".into(), "net.shard".into()],
                raw: true,
                max_events: Some(10),
            }
        );
        assert!(matches!(
            parse(&argv("watch --filter")),
            Err(CliError::MissingValue(f)) if f == "--filter"
        ));
    }

    #[test]
    fn ctl_parses_every_verb_and_requires_one() {
        for (s, action) in [
            ("ctl --pause", CtlAction::Pause),
            ("ctl --resume", CtlAction::Resume),
            ("ctl --step 5", CtlAction::Step(5)),
            ("ctl --snapshot", CtlAction::Snapshot),
            ("ctl --fork", CtlAction::Fork),
            ("ctl --fork-status 2", CtlAction::ForkStatus(2)),
            ("ctl --status", CtlAction::Status),
            ("ctl --ping", CtlAction::Ping),
            ("ctl --reprice", CtlAction::Reprice),
            ("ctl --addr 1.2.3.4:9 --shutdown", CtlAction::Shutdown),
        ] {
            match parse(&argv(s)).unwrap() {
                Command::Ctl { action: got, .. } => assert_eq!(got, action, "{s}"),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(matches!(parse(&argv("ctl")), Err(CliError::MissingFlag(_))));
        assert!(matches!(
            parse(&argv("ctl --step 0")),
            Err(CliError::BadValue { flag, .. }) if flag == "--step"
        ));
        assert!(matches!(
            parse(&argv("ctl --lights-on 3")),
            Err(CliError::UnknownFlag(f)) if f == "--lights-on"
        ));
    }

    #[test]
    fn ctl_swap_artifact_defaults_to_the_policy_server_address() {
        // The swap verb targets the policy server, so an omitted
        // `--addr` follows it to the serve port, not the control plane.
        assert_eq!(
            parse(&argv("ctl --swap-artifact new.eq")).unwrap(),
            Command::Ctl {
                addr: DEFAULT_ADDR.into(),
                action: CtlAction::SwapArtifact("new.eq".into()),
            }
        );
        // Every other verb keeps the control-plane default…
        assert_eq!(
            parse(&argv("ctl --pause")).unwrap(),
            Command::Ctl {
                addr: DEFAULT_CTL_ADDR.into(),
                action: CtlAction::Pause,
            }
        );
        // …and an explicit address wins regardless of flag order.
        for s in [
            "ctl --addr 1.2.3.4:9 --swap-artifact new.eq",
            "ctl --swap-artifact new.eq --addr 1.2.3.4:9",
        ] {
            assert_eq!(
                parse(&argv(s)).unwrap(),
                Command::Ctl {
                    addr: "1.2.3.4:9".into(),
                    action: CtlAction::SwapArtifact("new.eq".into()),
                },
                "{s}"
            );
        }
        assert!(matches!(
            parse(&argv("ctl --swap-artifact")),
            Err(CliError::MissingValue(f)) if f == "--swap-artifact"
        ));
    }

    #[test]
    fn scheme_names_roundtrip() {
        for (input, expect) in [
            ("mfg-cp", Scheme::MfgCp),
            ("MFGCP", Scheme::MfgCp),
            ("mfg", Scheme::Mfg),
            ("udcs", Scheme::Udcs),
            ("mpc", Scheme::Mpc),
            ("rr", Scheme::Rr),
        ] {
            assert_eq!(Scheme::parse(input).unwrap(), expect);
        }
        assert!(Scheme::parse("lru").is_err());
    }

    #[test]
    fn errors_are_specific() {
        assert!(matches!(
            parse(&argv("dance")),
            Err(CliError::UnknownCommand(c)) if c == "dance"
        ));
        assert!(matches!(
            parse(&argv("solve --eta1")),
            Err(CliError::MissingValue(f)) if f == "--eta1"
        ));
        assert!(matches!(
            parse(&argv("solve --what 3")),
            Err(CliError::UnknownFlag(f)) if f == "--what"
        ));
        assert!(matches!(
            parse(&argv("solve --eta1 banana")),
            Err(CliError::BadValue { .. })
        ));
        // Errors render.
        let e = parse(&argv("solve --eta1 banana")).unwrap_err();
        assert!(e.to_string().contains("banana"));
    }
}
