//! The control plane proper: the slot-boundary gate, the double-buffered
//! snapshot cell, and the seed-fork table.
//!
//! [`ControlPlane`] is the object the simulation engine talks to (via
//! [`EngineControl`]) and the TCP server reads from. Its determinism
//! contract is structural: the gate can only *block* the engine between
//! slots, every snapshot is an owned copy published by the engine itself,
//! and forks run on detached threads against cloned state — no code path
//! writes anything the engine reads.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use mfgcp_core::{Equilibrium, Framework, Params};
use mfgcp_obs::json::Json;
use mfgcp_obs::BroadcastSink;
use mfgcp_pde::Field2d;
use mfgcp_sim::{EngineControl, Histogram, PreparedEquilibrium, SimSnapshot};

/// Gate flags as seen by [`ControlPlane::gate_status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateStatus {
    /// The engine parks at the next slot boundary (unless stepping).
    pub paused: bool,
    /// Slots the engine may still execute while paused.
    pub step_budget: u64,
    /// The gate waves everything through (control plane shut down).
    pub detached: bool,
    /// The run has published its final snapshot.
    pub finished: bool,
}

#[derive(Debug, Default)]
struct GateState {
    paused: bool,
    step_budget: u64,
    detached: bool,
    finished: bool,
}

/// Outcome of a seed-fork solve.
#[derive(Debug, Clone, PartialEq)]
pub enum ForkOutcome {
    /// The what-if solve is still iterating.
    Running,
    /// The solve finished (converged or not — see the flag).
    Done {
        /// Whether the Picard iteration met its tolerance.
        converged: bool,
        /// Iterations performed.
        iterations: usize,
        /// Equilibrium price at `t = 0` under the forked density.
        price0: f64,
        /// Max FPK mass drift `max_n |∫λ(t_n) − 1|` over the solve.
        mass_drift: f64,
    },
    /// The solver could not be built from the run's parameters.
    Failed(
        /// Human-readable reason.
        String,
    ),
}

/// Fork solves that may run at once; a further request is refused with
/// [`ForkError::Busy`] until one finishes.
pub const MAX_RUNNING_FORKS: usize = 2;

/// Finished fork outcomes kept for polling; past this, the oldest are
/// evicted (their ids then poll as unknown).
pub const MAX_FORK_OUTCOMES: usize = 64;

/// Why [`ControlPlane::fork`] refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForkError {
    /// No slot-boundary snapshot has been published yet.
    NoSnapshot,
    /// [`MAX_RUNNING_FORKS`] fork solves are already running.
    Busy,
}

impl std::fmt::Display for ForkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForkError::NoSnapshot => write!(f, "no snapshot published yet; cannot fork"),
            ForkError::Busy => write!(
                f,
                "{MAX_RUNNING_FORKS} fork solves already running; retry when one finishes"
            ),
        }
    }
}

#[derive(Default)]
struct ForkTable {
    next: AtomicU32,
    /// Outcomes by id; ids are handed out in increasing order, so the
    /// first finished entry is the oldest.
    entries: Mutex<BTreeMap<u32, ForkOutcome>>,
    /// Handles of the running solves (at most [`MAX_RUNNING_FORKS`]).
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ForkTable {
    /// Record fork `id`'s outcome, then evict the oldest finished
    /// outcomes past [`MAX_FORK_OUTCOMES`].
    fn finish(&self, id: u32, outcome: ForkOutcome) {
        let mut entries = self.entries.lock().unwrap();
        entries.insert(id, outcome);
        let finished: Vec<u32> = entries
            .iter()
            .filter(|(_, o)| **o != ForkOutcome::Running)
            .map(|(&id, _)| id)
            .collect();
        for id in &finished[..finished.len().saturating_sub(MAX_FORK_OUTCOMES)] {
            entries.remove(id);
        }
    }
}

/// The shared observer/control state: gate + snapshot cell + fork table
/// + the broadcast sink whose drop counters the status query reports.
pub struct ControlPlane {
    state: Mutex<GateState>,
    wake: Condvar,
    cell: Mutex<Option<Arc<SimSnapshot>>>,
    sink: Arc<BroadcastSink>,
    forks: ForkTable,
    params: Params,
    /// A repriced equilibrium staged for the engine's next slot-boundary
    /// poll ([`EngineControl::take_prepared_equilibrium`]).
    pending_reprice: Mutex<Option<PreparedEquilibrium>>,
    /// `(policy, density)` of the last reprice solve, warm-starting the
    /// next one (the first reprice of a session solves cold).
    reprice_cache: Mutex<Option<(Vec<Field2d>, Vec<Field2d>)>>,
}

impl ControlPlane {
    /// Build a plane for a run solved under `params`, publishing stream
    /// frames through `sink`. With `hold` the gate starts paused, so a
    /// client can attach before slot 0 executes.
    pub fn new(params: Params, sink: Arc<BroadcastSink>, hold: bool) -> Self {
        Self {
            state: Mutex::new(GateState {
                paused: hold,
                ..GateState::default()
            }),
            wake: Condvar::new(),
            cell: Mutex::new(None),
            sink,
            forks: ForkTable::default(),
            params,
            pending_reprice: Mutex::new(None),
            reprice_cache: Mutex::new(None),
        }
    }

    /// The broadcast sink streamed events flow through.
    pub fn sink(&self) -> &Arc<BroadcastSink> {
        &self.sink
    }

    /// The latest published slot-boundary snapshot, if any.
    pub fn latest(&self) -> Option<Arc<SimSnapshot>> {
        self.cell.lock().unwrap().clone()
    }

    /// Request a pause at the next slot boundary.
    pub fn pause(&self) {
        let mut st = self.state.lock().unwrap();
        st.paused = true;
        st.step_budget = 0;
        self.wake.notify_all();
    }

    /// Grant `n` more slots, staying paused afterwards.
    pub fn step(&self, n: u64) {
        let mut st = self.state.lock().unwrap();
        st.paused = true;
        st.step_budget = st.step_budget.saturating_add(n);
        self.wake.notify_all();
    }

    /// Resume free running.
    pub fn resume(&self) {
        let mut st = self.state.lock().unwrap();
        st.paused = false;
        st.step_budget = 0;
        self.wake.notify_all();
    }

    /// Permanently wave the engine through (control-plane shutdown).
    pub fn detach(&self) {
        let mut st = self.state.lock().unwrap();
        st.detached = true;
        self.wake.notify_all();
    }

    /// Current gate flags.
    pub fn gate_status(&self) -> GateStatus {
        let st = self.state.lock().unwrap();
        GateStatus {
            paused: st.paused,
            step_budget: st.step_budget,
            detached: st.detached,
            finished: st.finished,
        }
    }

    /// Start a what-if equilibrium solve seeded from the live density:
    /// Alg. 2 re-entered for content 0 at the epoch's live demand, with
    /// the §V-A fading marginal crossed with the *empirical* occupancy
    /// distribution of the latest snapshot. Returns the fork id to poll
    /// with [`ControlPlane::fork_outcome`].
    ///
    /// # Errors
    /// [`ForkError::NoSnapshot`] before the first snapshot, and
    /// [`ForkError::Busy`] while [`MAX_RUNNING_FORKS`] solves run.
    pub fn fork(self: &Arc<Self>) -> Result<u32, ForkError> {
        let snap = self.latest().ok_or(ForkError::NoSnapshot)?;
        // The handle list is the admission lock: a handle leaves it only
        // once its thread has finished.
        let mut threads = self.forks.threads.lock().unwrap();
        threads.retain(|h| !h.is_finished());
        if threads.len() >= MAX_RUNNING_FORKS {
            return Err(ForkError::Busy);
        }
        let id = self.forks.next.fetch_add(1, Ordering::Relaxed);
        self.forks
            .entries
            .lock()
            .unwrap()
            .insert(id, ForkOutcome::Running);
        let plane = Arc::clone(self);
        let params = self.params.clone();
        threads.push(std::thread::spawn(move || {
            plane.forks.finish(id, run_fork(&params, &snap));
        }));
        Ok(id)
    }

    /// Re-run Alg. 2 for content 0 of the live run — at the epoch's live
    /// demand and the content's own size, seeded from the latest
    /// snapshot's empirical occupancy, warm-started from the previous
    /// reprice when one exists — and stage the result for the engine's
    /// next slot-boundary poll. Unlike [`ControlPlane::fork`] (a detached
    /// what-if), this solve runs synchronously on the caller's thread so
    /// the reply carries the outcome and a pause/reprice/resume sequence
    /// lands the swap on a deterministic slot. Returns the reply JSON of
    /// the `0x2B` verb.
    ///
    /// # Errors
    /// When no snapshot has been published yet, the run's parameters
    /// cannot rebuild a solver, or content 0 has no live demand.
    pub fn reprice(&self) -> Result<Json, String> {
        let snap = self.latest().ok_or_else(|| "no snapshot yet".to_string())?;
        let warm = self.reprice_cache.lock().unwrap().take();
        let stale = warm.as_ref().map(|(p, d)| (p.as_slice(), d.as_slice()));
        let eq = live_reprice(&self.params, &snap, stale)?;
        *self.reprice_cache.lock().unwrap() = Some((eq.policy.clone(), eq.density.clone()));
        let reply = Json::Obj(vec![
            ("content".to_string(), Json::Num(0.0)),
            ("warm".to_string(), Json::Bool(warm.is_some())),
            ("converged".to_string(), Json::Bool(eq.report.converged)),
            (
                "iterations".to_string(),
                Json::Num(eq.report.iterations as f64),
            ),
            (
                "residual".to_string(),
                Json::Num(eq.report.residuals.last().copied().unwrap_or(f64::NAN)),
            ),
            (
                "seeded_from_slot".to_string(),
                Json::Num(snap.global_slot as f64),
            ),
        ]);
        *self.pending_reprice.lock().unwrap() = Some(PreparedEquilibrium {
            content: 0,
            equilibrium: eq,
        });
        Ok(reply)
    }

    /// The current outcome of fork `id` (`None` for an unknown id).
    pub fn fork_outcome(&self, id: u32) -> Option<ForkOutcome> {
        self.forks.entries.lock().unwrap().get(&id).cloned()
    }

    /// Block until every fork thread has finished (shutdown path).
    pub fn join_forks(&self) {
        let running: Vec<_> = self.forks.threads.lock().unwrap().drain(..).collect();
        for thread in running {
            let _ = thread.join();
        }
    }

    /// Render the gate/stream status as the JSON document of the `0x29`
    /// status query.
    pub fn status_json(&self) -> Json {
        let gs = self.gate_status();
        let mut fields = vec![
            ("paused".to_string(), Json::Bool(gs.paused)),
            ("step_budget".to_string(), Json::Num(gs.step_budget as f64)),
            ("detached".to_string(), Json::Bool(gs.detached)),
            ("finished".to_string(), Json::Bool(gs.finished)),
            (
                "subscribers".to_string(),
                Json::Num(self.sink.subscriber_count() as f64),
            ),
            (
                "frames_enqueued".to_string(),
                Json::Num(self.sink.frames_enqueued() as f64),
            ),
            (
                "frames_dropped".to_string(),
                Json::Num(self.sink.frames_dropped() as f64),
            ),
        ];
        if let Some(snap) = self.latest() {
            fields.push(("global_slot".into(), Json::Num(snap.global_slot as f64)));
            fields.push(("total_slots".into(), Json::Num(snap.total_slots as f64)));
        }
        Json::Obj(fields)
    }
}

impl EngineControl for ControlPlane {
    fn at_slot_boundary(&self, snapshot: SimSnapshot) {
        let finished = snapshot.finished;
        *self.cell.lock().unwrap() = Some(Arc::new(snapshot));
        let mut st = self.state.lock().unwrap();
        if finished {
            st.finished = true;
            self.wake.notify_all();
            return;
        }
        while st.paused && st.step_budget == 0 && !st.detached {
            st = self.wake.wait(st).unwrap();
        }
        if st.paused && st.step_budget > 0 {
            st.step_budget -= 1;
        }
    }

    fn take_prepared_equilibrium(&self) -> Option<PreparedEquilibrium> {
        self.pending_reprice.lock().unwrap().take()
    }
}

/// Content 0's occupancy-seeded solve at the snapshot's live demand and
/// size — the [`Framework::reprice`] the engine's `reprice_slot` hook
/// runs — warm from `stale` when given.
fn live_reprice(
    params: &Params,
    snap: &SimSnapshot,
    stale: Option<(&[Field2d], &[Field2d])>,
) -> Result<Equilibrium, String> {
    let ctx = snap
        .contexts
        .first()
        .ok_or_else(|| "no epoch has started yet".to_string())?;
    let framework = Framework::new(params.clone())
        .map_err(|e| e.to_string())?
        .with_content_sizes(snap.q_sizes.clone());
    framework
        .reprice(0, ctx, &snap.occupancy, stale)
        .ok_or_else(|| "content 0 has no demand".to_string())
}

/// The detached what-if solve: §V-A fading marginal × empirical
/// occupancy histogram as the initial density, then Alg. 2 as usual.
fn run_fork(params: &Params, snap: &SimSnapshot) -> ForkOutcome {
    let eq = match live_reprice(params, snap, None) {
        Ok(eq) => eq,
        Err(reason) => return ForkOutcome::Failed(reason),
    };
    let mass_drift = eq
        .mass_series()
        .iter()
        .map(|m| (m - 1.0).abs())
        .fold(0.0_f64, f64::max);
    ForkOutcome::Done {
        converged: eq.report.converged,
        iterations: eq.report.iterations,
        price0: eq.price_at(0.0),
        mass_drift,
    }
}

/// Render a [`SimSnapshot`] as the JSON document of the `0x22` query.
pub fn snapshot_json(s: &SimSnapshot) -> Json {
    let hist = |h: &Histogram| {
        Json::Obj(vec![
            ("lo".to_string(), Json::Num(h.lo)),
            ("hi".to_string(), Json::Num(h.hi)),
            (
                "counts".to_string(),
                Json::Arr(h.counts.iter().map(|&c| Json::Num(c as f64)).collect()),
            ),
        ])
    };
    let mut fields = vec![
        ("scheme".to_string(), Json::Str(s.scheme.clone())),
        ("epoch".to_string(), Json::Num(s.epoch as f64)),
        ("slot".to_string(), Json::Num(s.slot as f64)),
        ("global_slot".to_string(), Json::Num(s.global_slot as f64)),
        ("total_slots".to_string(), Json::Num(s.total_slots as f64)),
        ("t".to_string(), Json::Num(s.t)),
        ("finished".to_string(), Json::Bool(s.finished)),
        ("progress".to_string(), Json::Num(s.progress())),
        ("num_edps".to_string(), Json::Num(s.num_edps as f64)),
        (
            "num_requesters".to_string(),
            Json::Num(s.num_requesters as f64),
        ),
        ("num_contents".to_string(), Json::Num(s.num_contents as f64)),
    ];
    if let Some(h) = &s.occupancy_hist {
        fields.push(("occupancy_hist".into(), hist(h)));
    }
    if let Some(h) = &s.price_hist {
        fields.push(("price_hist".into(), hist(h)));
    }
    if let Some(m) = &s.last_slot {
        fields.push((
            "last_slot".into(),
            Json::Obj(vec![
                ("t".to_string(), Json::Num(m.t)),
                ("mean_price".to_string(), Json::Num(m.mean_price)),
                (
                    "mean_remaining_space".to_string(),
                    Json::Num(m.mean_remaining_space),
                ),
                (
                    "mean_caching_rate".to_string(),
                    Json::Num(m.mean_caching_rate),
                ),
                ("slot_utility".to_string(), Json::Num(m.slot_utility)),
                (
                    "slot_trading_income".to_string(),
                    Json::Num(m.slot_trading_income),
                ),
            ]),
        ));
    }
    if let Some(a) = &s.audit {
        fields.push((
            "audit".into(),
            Json::Obj(vec![
                ("clean".to_string(), Json::Bool(a.is_clean())),
                ("violations".to_string(), Json::Num(a.violations as f64)),
                (
                    "slots_checked".to_string(),
                    Json::Num(a.slots_checked as f64),
                ),
                (
                    "equilibria_checked".to_string(),
                    Json::Num(a.equilibria_checked as f64),
                ),
                (
                    "handovers_checked".to_string(),
                    Json::Num(a.handovers_checked as f64),
                ),
            ]),
        ));
    }
    if let Some(n) = &s.net {
        let net = vec![
            ("mean_occupancy".to_string(), Json::Num(n.mean_occupancy)),
            (
                "max_occupancy".to_string(),
                Json::Num(n.max_occupancy as f64),
            ),
            (
                "occupied_shards".to_string(),
                Json::Num(n.occupied_shards as f64),
            ),
            ("edps".to_string(), Json::Num(n.edps as f64)),
            ("requesters".to_string(), Json::Num(n.requesters as f64)),
        ];
        fields.push(("net".into(), Json::Obj(net)));
    }
    Json::Obj(fields)
}

/// Render a [`ForkOutcome`] as the JSON document of the `0x28` query.
pub fn fork_json(id: u32, outcome: Option<&ForkOutcome>) -> Json {
    let mut fields = vec![("id".to_string(), Json::Num(id as f64))];
    match outcome {
        None => fields.push(("state".into(), Json::Str("unknown".into()))),
        Some(ForkOutcome::Running) => {
            fields.push(("state".into(), Json::Str("running".into())));
        }
        Some(ForkOutcome::Failed(reason)) => {
            fields.push(("state".into(), Json::Str("failed".into())));
            fields.push(("reason".into(), Json::Str(reason.clone())));
        }
        Some(ForkOutcome::Done {
            converged,
            iterations,
            price0,
            mass_drift,
        }) => {
            fields.push(("state".into(), Json::Str("done".into())));
            fields.push(("converged".into(), Json::Bool(*converged)));
            fields.push(("iterations".into(), Json::Num(*iterations as f64)));
            fields.push(("price0".into(), Json::Num(*price0)));
            fields.push(("mass_drift".into(), Json::Num(*mass_drift)));
        }
    }
    Json::Obj(fields)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mfgcp_core::ContentContext;
    use mfgcp_sim::CachingPolicy;

    fn test_plane() -> Arc<ControlPlane> {
        let params = mfgcp_sim::SimConfig::small().params;
        Arc::new(ControlPlane::new(
            params,
            Arc::new(BroadcastSink::new()),
            false,
        ))
    }

    pub(crate) fn snapshot(occupancy: Vec<f64>) -> SimSnapshot {
        SimSnapshot {
            scheme: "MFG-CP".into(),
            epoch: 0,
            slot: 3,
            global_slot: 3,
            total_slots: 20,
            t: 0.15,
            finished: false,
            num_edps: occupancy.len(),
            num_requesters: 48,
            num_contents: 4,
            occupancy,
            occupancy_hist: None,
            contexts: vec![ContentContext::from_params(&Params::default()); 4],
            q_sizes: vec![1.0; 4],
            price_hist: None,
            last_slot: None,
            audit: None,
            net: None,
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_bit_identical(a: &Equilibrium, b: &Equilibrium) {
        let (x, y) = (&a.report, &b.report);
        assert_eq!((x.converged, x.iterations), (y.converged, y.iterations));
        assert_eq!(bits(&x.residuals), bits(&y.residuals));
        assert_eq!(bits(&x.update_norms), bits(&y.update_norms));
        for (what, x, y) in [
            ("policy", &a.policy, &b.policy),
            ("density", &a.density, &b.density),
            ("values", &a.values, &b.values),
        ] {
            assert_eq!(x.len(), y.len(), "{what} length");
            for (n, (f, g)) in x.iter().zip(y).enumerate() {
                assert_eq!(bits(f.values()), bits(g.values()), "{what} step {n}");
            }
        }
    }

    #[test]
    fn reprice_needs_a_published_snapshot() {
        let plane = test_plane();
        let err = plane.reprice().unwrap_err();
        assert!(err.contains("no snapshot"), "got: {err}");
    }

    #[test]
    fn reprice_stages_one_swap_and_warm_starts_the_next() {
        let plane = test_plane();
        plane.at_slot_boundary(snapshot(vec![0.2, 0.5, 0.8, 1.0]));

        // First reprice: cold solve, staged exactly once.
        let cold = plane.reprice().expect("cold reprice");
        assert_eq!(cold.get("warm").and_then(Json::as_bool), Some(false));
        assert_eq!(cold.get("converged").and_then(Json::as_bool), Some(true));
        assert_eq!(cold.get("seeded_from_slot").and_then(Json::as_u64), Some(3));
        let staged = plane.take_prepared_equilibrium().expect("staged swap");
        assert_eq!(staged.content, 0);
        assert!(staged.equilibrium.report.converged);
        assert!(plane.take_prepared_equilibrium().is_none(), "taken twice");

        // Second reprice warm-starts from the first and needs no more
        // iterations than the cold solve it continues.
        let warm = plane.reprice().expect("warm reprice");
        assert_eq!(warm.get("warm").and_then(Json::as_bool), Some(true));
        assert_eq!(warm.get("converged").and_then(Json::as_bool), Some(true));
        let cold_its = cold.get("iterations").and_then(Json::as_u64).unwrap();
        let warm_its = warm.get("iterations").and_then(Json::as_u64).unwrap();
        assert!(
            warm_its <= cold_its,
            "warm reprice took {warm_its} iterations vs cold {cold_its}"
        );
    }

    /// The policy's reprice with nothing prepared and the plane's first
    /// reprice are one seeded cold solve: bit-identical equilibria.
    #[test]
    fn policy_and_plane_cold_reprices_are_bit_identical() {
        use mfgcp_sim::{baselines::MfgCpPolicy, CachingPolicy};

        let plane = test_plane();
        let p = plane.params.clone();
        let occ = vec![0.2, 0.5, 0.8, 1.0];
        plane.at_slot_boundary(snapshot(occ.clone()));
        plane.reprice().expect("cold reprice");
        let staged = plane.take_prepared_equilibrium().unwrap().equilibrium;
        let policy = MfgCpPolicy::new(p.clone()).unwrap();
        let direct = policy
            .reprice(0, &ContentContext::from_params(&p), &occ)
            .unwrap();
        assert_bit_identical(&direct, &staged);
    }

    /// MFG-CP that records the contexts the engine prepares each epoch for.
    struct Recording {
        inner: mfgcp_sim::baselines::MfgCpPolicy,
        prepared: Arc<Mutex<Vec<ContentContext>>>,
    }

    impl CachingPolicy for Recording {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn prepare_epoch(&mut self, contexts: &[ContentContext]) {
            *self.prepared.lock().unwrap() = contexts.to_vec();
            self.inner.prepare_epoch(contexts);
        }

        fn decide(&self, ctx: &mfgcp_sim::DecisionContext, rng: &mut mfgcp_sde::SimRng) -> f64 {
            self.inner.decide(ctx, rng)
        }
    }

    /// A reprice over the control plane on a paused run solves at the
    /// epoch's live demand, not the nominal one: bit-identical to the
    /// policy's own (cold) reprice with the engine's context and
    /// occupancy.
    #[test]
    fn paused_run_reprice_matches_the_policy_reprice_at_live_demand() {
        use mfgcp_sim::{baselines::MfgCpPolicy, SimConfig, Simulation};

        let cfg = SimConfig::small();
        let plane = Arc::new(ControlPlane::new(
            cfg.params.clone(),
            Arc::new(BroadcastSink::new()),
            true,
        ));
        let prepared = Arc::new(Mutex::new(Vec::new()));
        let policy = Recording {
            inner: MfgCpPolicy::new(cfg.params.clone()).unwrap(),
            prepared: Arc::clone(&prepared),
        };
        let mut sim = Simulation::new(cfg.clone(), Box::new(policy)).unwrap();
        sim.set_control(Arc::clone(&plane) as Arc<dyn EngineControl>);
        let run = std::thread::spawn(move || sim.run());

        plane.step(3);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        let snap = loop {
            match plane.latest() {
                Some(s) if s.global_slot == 3 => break s,
                _ => {
                    assert!(std::time::Instant::now() < deadline, "run never parked");
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        };
        let reply = plane.reprice().expect("live reprice");
        assert_eq!(reply.get("warm").and_then(Json::as_bool), Some(false));
        let staged = plane.take_prepared_equilibrium().unwrap().equilibrium;
        plane.detach();
        run.join().unwrap();

        let ctx = prepared.lock().unwrap()[0];
        assert_ne!(ctx, ContentContext::from_params(&cfg.params));
        assert_eq!(staged.contexts[0], ctx);
        let direct = MfgCpPolicy::new(cfg.params.clone())
            .unwrap()
            .reprice(0, &ctx, &snap.occupancy)
            .unwrap();
        assert_bit_identical(&direct, &staged);
    }

    /// Back-to-back forks never run more than the cap of solve threads at
    /// once, the outcome table stays bounded, and the server answers.
    #[test]
    fn fork_flood_is_bounded_and_the_server_stays_up() {
        use crate::{CtlClient, CtlReply, CtlRequest, CtlServer};
        use mfgcp_serve::{ClientError, ErrorCode};

        // Paper-grid solves: slow enough that the flood outruns them.
        let params = Params::default();
        let server = CtlServer::spawn(
            "127.0.0.1:0",
            params.clone(),
            Arc::new(BroadcastSink::new()),
            false,
        )
        .unwrap();
        let plane = server.plane();
        plane.at_slot_boundary(snapshot(vec![0.2, 0.5, 0.8, 1.0]));

        let mut client = CtlClient::connect(&server.local_addr().to_string()).unwrap();
        let timeout = std::time::Duration::from_secs(10);
        let (mut accepted, mut busy) = (0, 0);
        for _ in 0..50 {
            match client.request(&CtlRequest::Fork, timeout) {
                Ok(CtlReply::Ok(_)) => accepted += 1,
                Err(ClientError::Server(e)) if e.code == ErrorCode::Busy => busy += 1,
                other => panic!("unexpected fork reply {other:?}"),
            }
            let running = plane.forks.threads.lock().unwrap().len();
            assert!(running <= MAX_RUNNING_FORKS, "{running} solve threads");
            let held = plane.forks.entries.lock().unwrap().len();
            assert!(held <= MAX_RUNNING_FORKS + MAX_FORK_OUTCOMES);
        }
        assert_eq!(accepted + busy, 50);
        assert!(busy > 0, "the flood never reached the cap");
        assert!(matches!(
            client.request(&CtlRequest::Ping, timeout).unwrap(),
            CtlReply::Pong
        ));
        plane.join_forks();
        server.shutdown();
    }

    /// Finished outcomes past the cap evict the oldest first.
    #[test]
    fn finished_fork_outcomes_evict_the_oldest() {
        let table = ForkTable::default();
        let done = ForkOutcome::Failed("test".into());
        for id in 0..(MAX_FORK_OUTCOMES as u32 + 10) {
            table
                .entries
                .lock()
                .unwrap()
                .insert(id, ForkOutcome::Running);
            table.finish(id, done.clone());
        }
        let entries = table.entries.lock().unwrap();
        assert_eq!(entries.len(), MAX_FORK_OUTCOMES);
        assert_eq!(entries.keys().next(), Some(&10));
    }
}
