//! The finite-population simulation engine — Alg. 1 executed literally on
//! `M` explicit agents.
//!
//! Each epoch: refresh the trace-driven request profile, let the policy
//! prepare (MFG-CP solves its equilibria here), then march
//! `slots_per_epoch` trading slots. Each slot:
//!
//! 1. advance every channel link (exact OU transitions);
//! 2. every EDP records its requesters' demands (`I_{i,k}(t)`, Def. 2
//!    urgencies included) — per-EDP RNG streams, parallel;
//! 3. every EDP picks its caching rates via the [`CachingPolicy`] and
//!    integrates its caching state (Eq. (4), Euler–Maruyama) — parallel;
//! 4. the market clears sequentially: per content, Eq. (5) prices from the
//!    realized strategy profile, center-assigned peer matching, trade
//!    resolution and metric accounting (Alg. 1 lines 11–14).
//!
//! Parallel sections split the EDP vector into disjoint chunks with
//! `std::thread::scope`; every random draw comes from the owning EDP's
//! stream, so results are bit-identical regardless of thread count (the
//! count itself is `SimConfig::worker_threads`, 0 = one per core).

use std::sync::Arc;

use mfgcp_check::{
    AuditConfig, AuditReport, Auditor, HandoverStats, PopulationTotals, SlotFlows, TwoSmallest,
};
use mfgcp_core::{ContentContext, Equilibrium, Params, RateModel, SharedSupplyPricer};
use mfgcp_net::{ChannelState, MobileRequesters, ShardStats, Topology};
use mfgcp_obs::{RecorderHandle, Value};
use mfgcp_sde::{seeded_rng, SimRng};
use mfgcp_workload::{trace::SyntheticYoutubeTrace, trace::Trace, RequestBatch, RequestProcess};

use crate::config::SimConfig;
use crate::edp::Edp;
use crate::market::{resolve_trade, MarketOutcome, TradeCase};
use crate::metrics::{self, EdpMetrics, SlotMetrics};
use crate::policy::{CachingPolicy, DecisionContext};
use crate::snapshot::{EngineControl, Histogram, SimSnapshot};
use crate::SimError;

/// The outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Scheme name (from the policy).
    pub scheme: String,
    /// Final accumulated metrics per EDP.
    pub per_edp: Vec<EdpMetrics>,
    /// Per-slot population time series.
    pub series: Vec<SlotMetrics>,
    /// Number of epochs simulated.
    pub epochs: usize,
    /// Conservation-audit report when `SimConfig::audit` was set
    /// (`None` otherwise). A clean report certifies invariants I1–I4 for
    /// this run; see the `mfgcp-check` crate docs.
    pub audit: Option<AuditReport>,
}

impl SimReport {
    /// Population-mean utility.
    pub fn mean_utility(&self) -> f64 {
        metrics::mean_utility(&self.per_edp)
    }

    /// Population-mean trading income.
    pub fn mean_trading_income(&self) -> f64 {
        metrics::mean_trading_income(&self.per_edp)
    }

    /// Population-mean staleness cost.
    pub fn mean_staleness_cost(&self) -> f64 {
        metrics::mean_staleness_cost(&self.per_edp)
    }

    /// Population-mean sharing benefit.
    pub fn mean_sharing_benefit(&self) -> f64 {
        metrics::mean_sharing_benefit(&self.per_edp)
    }

    /// Gini coefficient of per-EDP utilities (0 = perfectly fair).
    pub fn gini_utility(&self) -> f64 {
        metrics::gini_utility(&self.per_edp)
    }

    /// Standard deviation of per-EDP utilities.
    pub fn std_utility(&self) -> f64 {
        metrics::std_utility(&self.per_edp)
    }

    /// Total case tallies across the population `(case1, case2, case3)`.
    pub fn case_totals(&self) -> (u64, u64, u64) {
        self.per_edp.iter().fold((0, 0, 0), |acc, m| {
            (
                acc.0 + m.case_counts.0,
                acc.1 + m.case_counts.1,
                acc.2 + m.case_counts.2,
            )
        })
    }
}

/// The finite-population simulator.
pub struct Simulation {
    cfg: SimConfig,
    topology: Topology,
    channels: ChannelState,
    edps: Vec<Edp>,
    policy: Box<dyn CachingPolicy>,
    trace: Trace,
    rate_model: RateModel,
    /// Per-content sizes `Q_k` (resolved from the config).
    q_sizes: Vec<f64>,
    /// Moving requester population, if mobility is enabled.
    mobility: Option<MobileRequesters>,
    master_rng: SimRng,
    /// Accumulated wall-clock nanoseconds spent in market clearing
    /// (instrumentation only; never feeds back into the dynamics).
    market_nanos: u128,
    /// Per-slot market workspace, reused across slots.
    market_scratch: MarketScratch,
    recorder: RecorderHandle,
    /// Slot-boundary observer/control hook, when a control plane is
    /// attached ([`Simulation::set_control`]). May block between slots
    /// (pause/step gating); its only mutation channel is the audited,
    /// generation-counted equilibrium hot-swap polled right after the
    /// boundary callback returns.
    control: Option<Arc<dyn EngineControl>>,
    /// Count of equilibrium hot-swaps installed so far (control-plane
    /// repricing and the `reprice_slot` scenario hook). Mirrors the serve
    /// artifact store's generation counter: each swap bumps it and the
    /// `sim.reprice.swap` event carries the new value.
    reprice_generation: u64,
    /// Channel shard gauges sampled at the current epoch's start, cached
    /// for snapshot publication (only maintained while a controller is
    /// attached; `None` until the first sample).
    shard_sample: Option<ShardStats>,
}

/// Reusable per-slot buffers of [`Simulation::clear_market`]'s fused
/// population pass; allocation-free after the first slot.
#[derive(Debug, Default)]
struct MarketScratch {
    /// `Σ_i x_{i,k}` per content (Eq. (5) shared supply).
    sum_x: Vec<f64>,
    /// Two best-stocked qualified sharers per content (best + runner-up,
    /// for when the best is the buyer) — the `mfgcp-check` tracker whose
    /// equivalence to a full `min_by` scan is property-tested there.
    sharers: Vec<TwoSmallest>,
    /// Contiguous k = 0 strategy column for the mean-price statistic.
    x0: Vec<f64>,
    /// Sharing thresholds `α·Q_k`, hoisted out of the population loop.
    alpha_qks: Vec<f64>,
    /// Per-content `(edp, requests)` lists, `i` ascending.
    requesters: Vec<Vec<(usize, u64)>>,
    /// Per-content Eq. (5) pricers built once per slot from `sum_x`.
    pricers: Vec<SharedSupplyPricer>,
    /// Flattened `(content, edp, requests)` trade entries in fold order
    /// (`k` outer, `i` ascending) — the sharded trade loop's work list.
    entries: Vec<(u32, u32, u64)>,
    /// Sharded precompute results, `(outcome, unit price)` per entry.
    outcomes: Vec<(MarketOutcome, f64)>,
}

impl Simulation {
    /// Build a simulation with a synthetic YouTube-like trace.
    ///
    /// # Errors
    ///
    /// Returns configuration or workload errors.
    pub fn new(cfg: SimConfig, policy: Box<dyn CachingPolicy>) -> Result<Self, SimError> {
        cfg.validate()?;
        let mut master_rng = seeded_rng(cfg.seed);
        let trace = SyntheticYoutubeTrace {
            categories: cfg.num_contents,
            epochs: cfg.epochs.max(2),
            ..SyntheticYoutubeTrace::default()
        }
        .generate(&mut master_rng)?;
        Self::with_trace(cfg, policy, trace)
    }

    /// Build a simulation from an explicit trace (e.g. the real Kaggle CSV
    /// loaded with `mfgcp_workload::trace::parse_kaggle_csv`).
    ///
    /// # Errors
    ///
    /// Returns configuration or workload errors.
    pub fn with_trace(
        cfg: SimConfig,
        policy: Box<dyn CachingPolicy>,
        trace: Trace,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        if trace.num_categories() != cfg.num_contents {
            return Err(SimError::BadConfig {
                name: "trace",
                message: format!(
                    "trace has {} categories, config expects {}",
                    trace.num_categories(),
                    cfg.num_contents
                ),
            });
        }
        let mut master_rng = seeded_rng(cfg.seed);
        let topology = Topology::random(
            cfg.num_edps,
            cfg.num_requesters,
            &cfg.network,
            &mut master_rng,
        );
        let channels = ChannelState::init(&topology, &cfg.network, &mut master_rng);
        let q_sizes = cfg.resolved_sizes();
        // λ(0) is specified as a fraction of each content's own size.
        let frac_dist = mfgcp_sde::Normal::new(cfg.params.lambda0_mean, cfg.params.lambda0_std)
            .expect("validated initial distribution");
        let mut edps = Vec::with_capacity(cfg.num_edps);
        for id in 0..cfg.num_edps {
            let mut e = Edp::new(
                id,
                cfg.num_contents,
                0.0,
                cfg.zipf_iota,
                cfg.timeliness,
                cfg.seed,
            )?;
            for (q, &size) in e.q.iter_mut().zip(&q_sizes) {
                *q = (frac_dist.sample(&mut master_rng) * size).clamp(0.0, size);
            }
            edps.push(e);
        }
        let rate_model = RateModel::from_params(&cfg.params);
        let mobility = cfg.mobility.map(|model| {
            let positions = (0..topology.num_requesters())
                .map(|j| topology.requester(j))
                .collect();
            MobileRequesters::new(positions, cfg.network.area_radius, model, &mut master_rng)
        });
        Ok(Self {
            cfg,
            topology,
            channels,
            edps,
            policy,
            trace,
            rate_model,
            q_sizes,
            mobility,
            master_rng,
            market_nanos: 0,
            market_scratch: MarketScratch::default(),
            recorder: RecorderHandle::noop(),
            control: None,
            reprice_generation: 0,
            shard_sample: None,
        })
    }

    /// Attach a telemetry recorder to the whole simulation: per-slot
    /// `market.slot` events, a `sim.prepare_epoch` span around the policy's
    /// epoch preparation (where MFG-CP's `solver.*` events nest), and the
    /// `net.*` events of topology re-association and requester mobility
    /// (including the `net.shard.*` channel-occupancy gauges).
    /// Telemetry reads state only — runs are bit-identical with recording
    /// on or off.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.topology.set_recorder(recorder.clone());
        self.channels.set_recorder(recorder.clone());
        if let Some(mob) = &mut self.mobility {
            mob.set_recorder(recorder.clone());
        }
        self.policy.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// Attach a slot-boundary control hook. The engine calls
    /// [`EngineControl::at_slot_boundary`] with a fresh [`SimSnapshot`]
    /// before every slot (and once more with `finished = true` after the
    /// last). The hook may block — that is how the control plane pauses
    /// and single-steps the run — but it only ever gates *when* the next
    /// slot executes, never *what* it computes, so controlled runs stay
    /// bit-identical to free runs.
    pub fn set_control(&mut self, control: Arc<dyn EngineControl>) {
        self.control = Some(control);
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The current remaining-space states of every EDP for one content —
    /// after [`Simulation::run`], the end-of-run empirical distribution
    /// (used by the propagation-of-chaos ablation).
    pub fn final_states(&self, content: usize) -> Vec<f64> {
        self.edps.iter().map(|e| e.q[content]).collect()
    }

    /// Per-content epoch contexts for the policy's `prepare_epoch`:
    /// expected per-EDP requests and population-mean popularity/urgency.
    fn epoch_contexts(&self, weights: &[f64]) -> Vec<ContentContext> {
        let m = self.cfg.num_edps as f64;
        let requesters_per_edp = self.cfg.num_requesters as f64 / m;
        let requests_per_epoch =
            self.cfg.request_prob * requesters_per_edp * self.cfg.slots_per_epoch as f64;
        (0..self.cfg.num_contents)
            .map(|k| {
                let pop: f64 = self.edps.iter().map(|e| e.popularity.get(k)).sum::<f64>() / m;
                let urg: f64 = self
                    .edps
                    .iter()
                    .map(|e| e.timeliness.factor(k))
                    .sum::<f64>()
                    / m;
                ContentContext {
                    requests: requests_per_epoch * weights[k],
                    popularity: pop,
                    urgency_factor: urg,
                }
            })
            .collect()
    }

    /// Mean fading coefficient from EDP `i` towards its served requesters
    /// (falls back to the long-term mean when it serves nobody).
    fn mean_fading(&self, i: usize) -> f64 {
        let served = self.topology.served_by(i);
        if served.is_empty() {
            return self.cfg.params.upsilon_h;
        }
        served
            .iter()
            .map(|&j| self.channels.fading(i, j))
            .sum::<f64>()
            / served.len() as f64
    }

    /// Run the configured number of epochs, consuming per-slot dynamics.
    pub fn run(&mut self) -> SimReport {
        let mut series = Vec::with_capacity(self.cfg.epochs * self.cfg.slots_per_epoch);
        let mut auditor = self.cfg.audit.then(|| {
            Auditor::new(
                AuditConfig {
                    sample_every: self.cfg.audit_sample,
                    ..AuditConfig::default()
                },
                self.policy.allows_sharing(),
                self.recorder.clone(),
            )
        });
        for epoch in 0..self.cfg.epochs {
            self.run_epoch(epoch, &mut series, &mut auditor);
        }
        // Final publication: same snapshot shape, `finished` set, so an
        // attached observer learns the run is over even if it never
        // resumed a paused run until now.
        if let Some(ctl) = self.control.clone() {
            ctl.at_slot_boundary(self.build_snapshot(
                self.cfg.epochs,
                0,
                &series,
                auditor.as_ref(),
                true,
            ));
        }
        let per_edp: Vec<EdpMetrics> = self.edps.iter().map(|e| e.metrics).collect();
        let audit = auditor.map(|a| a.finish(&population_totals(&self.edps)));
        SimReport {
            scheme: self.policy.name().to_string(),
            per_edp,
            series,
            epochs: self.cfg.epochs,
            audit,
        }
    }

    fn run_epoch(
        &mut self,
        epoch: usize,
        series: &mut Vec<SlotMetrics>,
        auditor: &mut Option<Auditor>,
    ) {
        // Mobility: re-associate requesters to their nearest EDP at the
        // epoch boundary ("default serving EDP that is nearest
        // geographically", §II). Epoch 0 starts from the association the
        // topology was just built with — nobody has moved yet, so the
        // pass would be a no-op.
        if epoch > 0 {
            if let Some(mob) = &self.mobility {
                let before = auditor.as_ref().map(|_| self.handover_snapshot());
                self.topology.update_requesters(mob.positions());
                self.channels.refresh_distances(&self.topology);
                if let (Some(aud), Some(before)) = (auditor.as_mut(), before) {
                    // I6: the migration must re-partition the population
                    // without duplicating or dropping a requester, and the
                    // per-EDP money/case accumulators must reconcile
                    // exactly across the boundary (association moves
                    // requesters, never economics).
                    let after = handover_stats(&self.topology, &before.serving);
                    aud.check_handover(
                        epoch,
                        &after,
                        &before.totals,
                        &population_totals(&self.edps),
                    );
                }
            }
        }
        // Shard gauges cost O(J·k_int) to aggregate, so snapshots carry a
        // once-per-epoch sample (taken right after re-association, where
        // the gauges change) instead of recomputing them every slot.
        if self.control.is_some() {
            self.shard_sample = Some(self.channels.shard_stats());
        }
        let weights = self.trace.normalized_weights(epoch);
        let contexts = self.epoch_contexts(&weights);
        let prep = self.recorder.span_with(
            "sim.prepare_epoch",
            &[("epoch", epoch.into()), ("contents", contexts.len().into())],
        );
        self.policy.prepare_epoch(&contexts);
        prep.close(&[]);
        if let Some(aud) = auditor.as_mut() {
            // I4: gate every freshly solved equilibrium before it steers
            // a single decision.
            for (k, eq) in self.policy.prepared_equilibria() {
                aud.check_equilibrium(epoch, k, eq);
            }
        }
        let process = RequestProcess::new(self.cfg.request_prob, weights, self.cfg.timeliness)
            .expect("validated request parameters");

        let dt = self.cfg.slot_dt();
        let k_contents = self.cfg.num_contents;
        // Per-epoch request tallies for the Eq. (3) popularity update.
        let mut epoch_counts: Vec<Vec<usize>> = vec![vec![0; k_contents]; self.cfg.num_edps];

        for slot in 0..self.cfg.slots_per_epoch {
            // Slot boundary: publish the end-of-previous-slot state and
            // let the control plane gate when this slot runs. Once the
            // gate releases, poll for a repriced equilibrium — a client
            // can pause, trigger `--reprice`, and resume knowing the
            // swap lands before this slot executes.
            if let Some(ctl) = self.control.clone() {
                ctl.at_slot_boundary(self.build_snapshot(
                    epoch,
                    slot,
                    series,
                    auditor.as_ref(),
                    false,
                ));
                if let Some(prep) = ctl.take_prepared_equilibrium() {
                    self.install_prepared(epoch, slot, prep.content, prep.equilibrium, auditor);
                }
            }
            // Scenario hook: reprice content 0 at the configured global
            // slot boundary, warm-started from the live occupancy.
            if self.cfg.reprice_slot == Some(epoch * self.cfg.slots_per_epoch + slot) {
                let occupancy: Vec<f64> = self.edps.iter().map(|e| e.q[0]).collect();
                if let Some(eq) = self.policy.reprice(0, &contexts[0], &occupancy) {
                    self.install_prepared(epoch, slot, 0, eq, auditor);
                }
            }
            let t_in_epoch = slot as f64 * dt;
            let t_global = (epoch * self.cfg.slots_per_epoch + slot) as f64 * dt;
            self.channels.advance(dt);
            if let Some(mob) = &mut self.mobility {
                mob.step(dt, &mut self.master_rng);
                // Distances track the walkers continuously; association
                // only changes at epoch boundaries, so refresh straight
                // from the walker positions instead of cloning and
                // re-associating the whole topology every slot.
                self.channels
                    .refresh_distances_from_positions(&self.topology, mob.positions());
            }

            // Center-published occupancy per content (for UDCS overlap).
            let cached_fraction: Vec<f64> = (0..k_contents)
                .map(|k| {
                    let thr = self.cfg.params.alpha * self.q_sizes[k];
                    self.edps.iter().filter(|e| e.can_share(k, thr)).count() as f64
                        / self.cfg.num_edps as f64
                })
                .collect();
            let mean_fadings: Vec<f64> = (0..self.cfg.num_edps)
                .map(|i| self.mean_fading(i))
                .collect();

            // ---- Parallel phase: requests, decisions, state integration.
            let global_slot = (epoch * self.cfg.slots_per_epoch + slot) as u64;
            let (batches, phase_costs) = self.parallel_edp_phase(
                &process,
                &mean_fadings,
                &cached_fraction,
                t_in_epoch,
                global_slot,
                dt,
            );

            // ---- Sequential phase: market clearing per content.
            let mut slot_stats = self.clear_market(&batches, &mean_fadings, dt);
            // Fold the parallel phase's rate-type costs (Eq. (8) placement,
            // Eq. (9) center-download term) into the slot aggregates so the
            // series carries every Eq. (10) term the per-EDP accumulators
            // do. Summed sequentially in `i` order — the per-EDP buffer is
            // written by whichever thread owns the chunk, but each entry is
            // that EDP's alone, so this sum is bit-identical for any
            // thread count.
            for c in &phase_costs {
                slot_stats.placement += c.placement;
                slot_stats.staleness += c.rate_staleness;
                slot_stats.utility -= c.placement + c.rate_staleness;
            }
            if self.recorder.enabled() {
                self.recorder
                    .event("market.slot", &slot_event_fields(epoch, slot, &slot_stats));
            }
            if let Some(aud) = auditor.as_mut() {
                aud.observe_slot(&SlotFlows {
                    epoch,
                    slot,
                    trading_income: slot_stats.income,
                    sharing_earned: slot_stats.share_benefit,
                    sharing_paid: slot_stats.sharing_cost,
                    placement_cost: slot_stats.placement,
                    staleness_cost: slot_stats.staleness,
                    utility: slot_stats.utility,
                    volume: slot_stats.volume,
                    cases: (slot_stats.case1, slot_stats.case2, slot_stats.case3),
                });
            }

            for (e, batch) in self.edps.iter().zip(&batches) {
                for (k, &c) in batch.counts.iter().enumerate() {
                    epoch_counts[e.id][k] += c;
                }
            }

            let m = self.cfg.num_edps as f64;
            series.push(SlotMetrics {
                t: t_global,
                mean_remaining_space: self.edps.iter().map(|e| e.q[0]).sum::<f64>() / m,
                mean_caching_rate: self.edps.iter().map(|e| e.x[0]).sum::<f64>() / m,
                mean_price: slot_stats.mean_price,
                slot_utility: slot_stats.utility / m,
                slot_trading_income: slot_stats.income / m,
                slot_sharing_benefit: slot_stats.share_benefit / m,
                slot_staleness_cost: slot_stats.staleness / m,
                slot_placement_cost: slot_stats.placement / m,
                slot_sharing_cost: slot_stats.sharing_cost / m,
            });
        }

        // Eq. (3): popularity refresh from the epoch's realized requests.
        for e in &mut self.edps {
            e.popularity.update(&epoch_counts[e.id]);
        }
    }

    /// Requests + decisions + Eq. (4) integration, parallel over disjoint
    /// EDP chunks. Returns each EDP's request batch and the rate-type
    /// costs it accrued this slot (one entry per EDP, written only by the
    /// thread owning that EDP's chunk, so downstream sequential sums are
    /// thread-count-independent).
    fn parallel_edp_phase(
        &mut self,
        process: &RequestProcess,
        mean_fadings: &[f64],
        cached_fraction: &[f64],
        t_in_epoch: f64,
        global_slot: u64,
        dt: f64,
    ) -> (Vec<RequestBatch>, Vec<PhaseCost>) {
        let cfg = &self.cfg;
        // Requests draw from per-requester counter streams keyed by the
        // requester's identity and the global slot, so a batch depends
        // only on *who* an EDP serves — not on the EDP's own stream, not
        // on the thread schedule, and not on past handovers. The constant
        // detunes the request-stream key space from the per-link channel
        // streams that also derive from `cfg.seed`.
        let request_seed = cfg.seed ^ 0xA076_1D64_78BD_642F;
        let policy = &*self.policy;
        let topology = &self.topology;
        let q_sizes = &self.q_sizes;
        let n_threads = thread_count(cfg.worker_threads);
        let chunk_size = self.edps.len().div_ceil(n_threads).max(1);
        let mut batches: Vec<RequestBatch> =
            vec![RequestBatch::empty(cfg.num_contents); self.edps.len()];
        let mut costs: Vec<PhaseCost> = vec![PhaseCost::default(); self.edps.len()];

        std::thread::scope(|scope| {
            let mut edp_chunks: Vec<&mut [Edp]> = self.edps.chunks_mut(chunk_size).collect();
            let batch_chunks: Vec<&mut [RequestBatch]> = batches.chunks_mut(chunk_size).collect();
            let cost_chunks: Vec<&mut [PhaseCost]> = costs.chunks_mut(chunk_size).collect();
            for ((edp_chunk, batch_chunk), cost_chunk) in
                edp_chunks.drain(..).zip(batch_chunks).zip(cost_chunks)
            {
                scope.spawn(move || {
                    for ((e, batch), cost) in edp_chunk
                        .iter_mut()
                        .zip(batch_chunk.iter_mut())
                        .zip(cost_chunk.iter_mut())
                    {
                        let served = topology.served_by(e.id);
                        *batch = process.generate_batched(served, request_seed, global_slot);
                        // Timeliness observations (Def. 2).
                        for k in 0..cfg.num_contents {
                            e.timeliness.observe(k, &batch.urgencies[k]);
                        }
                        // Decisions + Eq. (4) Euler–Maruyama integration.
                        let ranked = e.popularity.ranked();
                        let mut rank_of = vec![0usize; cfg.num_contents];
                        for (r, &k) in ranked.iter().enumerate() {
                            rank_of[k] = r;
                        }
                        for k in 0..cfg.num_contents {
                            let q_size = q_sizes[k];
                            let ctx = DecisionContext {
                                edp: e.id,
                                content: k,
                                t_in_epoch,
                                q: e.q[k],
                                q_size,
                                h: mean_fadings[e.id],
                                popularity: e.popularity.get(k),
                                urgency_factor: e.timeliness.factor(k),
                                rank: rank_of[k],
                                num_contents: cfg.num_contents,
                                neighbor_cached_fraction: cached_fraction[k],
                            };
                            let raw = policy.decide(&ctx, &mut e.rng);
                            // Defensive: a buggy policy returning NaN/∞ must
                            // not poison the market state.
                            let x = if raw.is_finite() {
                                raw.clamp(0.0, 1.0)
                            } else {
                                0.0
                            };
                            e.x[k] = x;
                            let drift = cfg.params.drift_q(x, ctx.popularity, ctx.urgency_factor);
                            let noise = cfg.params.varrho_q
                                * dt.sqrt()
                                * mfgcp_sde::StandardNormal.sample(&mut e.rng);
                            e.q[k] = (e.q[k] + drift * dt + noise).clamp(0.0, q_size);
                            // Rate-type costs: placement (Eq. (8)) and the
                            // center download of the caching rate (Eq. (9),
                            // first term), both × dt. Accrued on the EDP's
                            // accumulator *and* reported per slot so the
                            // slot series stays Eq. (10)-complete.
                            let placement = (cfg.params.w4 * x + cfg.params.w5 * x * x) * dt;
                            let rate_staleness =
                                cfg.params.eta2 * q_size * x / cfg.params.center_rate * dt;
                            e.metrics.placement_cost += placement;
                            e.metrics.staleness_cost += rate_staleness;
                            cost.placement += placement;
                            cost.rate_staleness += rate_staleness;
                        }
                    }
                });
            }
        });
        (batches, costs)
    }

    /// Sequential market clearing; returns slot-level aggregates.
    ///
    /// Pricing uses the shared-supply form of Eq. (5): one O(M) pass per
    /// content accumulates `Σ_i x_i`, then each requesting EDP's price is
    /// the O(1) total-minus-own identity — O(M·K) per slot overall, versus
    /// the O(M²·K) of calling [`finite_population_price`] per EDP. The
    /// center's best-stocked-peer assignment likewise precomputes the two
    /// lowest-remaining-space qualified sharers per content once, so each
    /// request resolves its peer in O(1) instead of scanning all sharers.
    fn clear_market(
        &mut self,
        batches: &[RequestBatch],
        mean_fadings: &[f64],
        _dt: f64,
    ) -> SlotAggregates {
        let start = std::time::Instant::now();
        let cfg = &self.cfg;
        let sharing_allowed = self.policy.allows_sharing();
        let m = self.edps.len();
        let kk = cfg.num_contents;
        let mut agg = SlotAggregates::default();

        // One fused pass over the population gathers everything the
        // per-content phases need: the Eq. (5) supply sums, the two
        // best-stocked qualified sharers per content, the k = 0 strategy
        // column (for the mean-price statistic) and each content's
        // requester list. Interleaving per-content scans the other way
        // (content-outer, population-inner) re-reads every EDP's heap state
        // `K` times per slot, which dominates the market wall time once
        // `M` outgrows the cache. All per-content accumulation orders stay
        // `i` ascending, so sums are bit-identical to the separate passes.
        let s = &mut self.market_scratch;
        s.sum_x.clear();
        s.sum_x.resize(kk, 0.0);
        s.sharers.clear();
        s.sharers.resize(kk, TwoSmallest::new());
        s.x0.clear();
        s.x0.resize(m, 0.0);
        s.alpha_qks.clear();
        s.alpha_qks
            .extend(self.q_sizes.iter().map(|&q| cfg.params.alpha * q));
        s.requesters.resize_with(kk, Vec::new);
        for r in &mut s.requesters {
            r.clear();
        }
        for (i, e) in self.edps.iter().enumerate() {
            s.x0[i] = e.x[0];
            for k in 0..kk {
                s.sum_x[k] += e.x[k];
                // Center's peer assignment: the best-stocked qualified
                // sharer has the smallest remaining space. The two-smallest
                // tracker (first-minimal on ties, matching a `min_by` scan
                // in id order — property-tested against that scan in
                // `mfgcp-check`) answers every "minimum excluding EDP i"
                // query in O(1).
                if e.can_share(k, s.alpha_qks[k]) {
                    s.sharers[k].offer(e.id, e.q[k]);
                }
                let requests = batches[i].counts[k] as u64;
                if requests > 0 {
                    s.requesters[k].push((i, requests));
                }
            }
        }

        // Per-content Eq. (5) pricers, built once from the supply sums and
        // shared by the sharded precompute and the k = 0 mean-price
        // statistic.
        s.pricers.clear();
        for k in 0..kk {
            s.pricers.push(SharedSupplyPricer::from_sum(
                cfg.params.p_hat,
                cfg.params.eta1,
                self.q_sizes[k],
                m,
                s.sum_x[k],
            ));
        }

        // Sharded trade precompute. Every (EDP, content) trade entry is a
        // pure function of frozen slot state — the strategy profile `x`,
        // the caching states `q`, the mean fadings, the pricer, and the
        // sharer tracker; the fold below only mutates metrics
        // accumulators. So the entries are flattened in fold order (`k`
        // outer, `i` ascending) and resolved on scoped threads, and the
        // sequential fold that consumes them is bit-identical for any
        // thread count: each entry's outcome comes from the same pure call
        // with the same inputs, folded in the same order.
        s.entries.clear();
        for k in 0..kk {
            for &(i, requests) in &s.requesters[k] {
                s.entries.push((k as u32, i as u32, requests));
            }
        }
        let idle = (
            resolve_trade(1.0, 1.0, 0.0, None, 0.0, 0, 1.0, 1.0, 0.0, 0.0),
            0.0,
        );
        s.outcomes.clear();
        s.outcomes.resize(s.entries.len(), idle);
        let edps = &self.edps;
        let rate_model = &self.rate_model;
        let q_sizes = &self.q_sizes;
        let params = &cfg.params;
        let (entries, pricers, sharer_list, alpha_qks) =
            (&s.entries, &s.pricers, &s.sharers, &s.alpha_qks);
        let fill = |outs: &mut [(MarketOutcome, f64)], ents: &[(u32, u32, u64)]| {
            for (out, &(k, i, requests)) in outs.iter_mut().zip(ents) {
                let (k, i) = (k as usize, i as usize);
                let rate_edge = rate_model.rate(mean_fadings[i]).max(1e-9);
                *out = trade_entry(
                    &edps[i],
                    k,
                    requests,
                    q_sizes[k],
                    alpha_qks[k],
                    &pricers[k],
                    &sharer_list[k],
                    sharing_allowed,
                    rate_edge,
                    params,
                );
            }
        };
        let n_threads = thread_count(cfg.worker_threads)
            .min(entries.len() / MIN_TRADE_ENTRIES_PER_THREAD)
            .max(1);
        if n_threads <= 1 {
            fill(&mut s.outcomes, entries);
        } else {
            let chunk = entries.len().div_ceil(n_threads);
            let fill = &fill;
            std::thread::scope(|scope| {
                for (outs, ents) in s.outcomes.chunks_mut(chunk).zip(entries.chunks(chunk)) {
                    scope.spawn(move || fill(outs, ents));
                }
            });
        }

        let mut outcomes = s.outcomes.iter();
        for k in 0..kk {
            let pricer = s.pricers[k];
            // The k = 0 mean-price series averages over *every* EDP
            // (idle ones included), exactly like the per-EDP pricing
            // loop it replaces — now a dedicated O(M) pass over the
            // contiguous strategy column.
            if k == 0 {
                agg.mean_price = s.x0.iter().map(|&x| pricer.price(x)).sum::<f64>() / m as f64;
            }

            for (&(i, requests), &(out, price)) in s.requesters[k].iter().zip(&mut outcomes) {
                agg.min_price = agg.min_price.min(price);
                agg.max_price = agg.max_price.max(price);
                let m = &mut self.edps[i].metrics;
                m.trading_income += out.income;
                m.staleness_cost += out.staleness_cost;
                m.sharing_cost += out.sharing_cost;
                m.requests_served += requests;
                match out.case {
                    TradeCase::OwnCache => {
                        m.case_counts.0 += 1;
                        agg.case1 += 1;
                    }
                    TradeCase::PeerShare => {
                        m.case_counts.1 += 1;
                        agg.case2 += 1;
                    }
                    TradeCase::CenterDownload => {
                        m.case_counts.2 += 1;
                        agg.case3 += 1;
                    }
                }
                agg.volume += requests;
                agg.income += out.income;
                agg.staleness += out.staleness_cost;
                agg.sharing_cost += out.sharing_cost;
                agg.utility += out.income - out.staleness_cost - out.sharing_cost;
                if let Some(peer_idx) = out.peer {
                    // Eq. (7): the fee is the peer's sharing benefit.
                    self.edps[peer_idx].metrics.sharing_benefit += out.sharing_cost;
                    agg.share_benefit += out.sharing_cost;
                    agg.utility += out.sharing_cost;
                }
            }
        }
        let elapsed = start.elapsed().as_nanos();
        self.market_nanos += elapsed;
        agg.nanos = u64::try_from(elapsed).unwrap_or(u64::MAX);
        agg
    }

    /// Total wall-clock time spent inside market clearing so far, in
    /// nanoseconds (instrumentation for the `BENCH_market.json` sweep; has
    /// no effect on simulation results).
    pub fn market_clearing_nanos(&self) -> u128 {
        self.market_nanos
    }

    /// Number of equilibrium hot-swaps installed so far (the generation
    /// the latest `sim.reprice.swap` event carried; `0` before any swap).
    pub fn reprice_generation(&self) -> u64 {
        self.reprice_generation
    }

    /// Audit and hot-swap a freshly solved equilibrium into the policy at
    /// a slot boundary. The I4 gate runs *before* the swap so a bad
    /// solve is counted against the run before it steers a decision;
    /// policies that hold no equilibria refuse the install and the
    /// generation stays put.
    fn install_prepared(
        &mut self,
        epoch: usize,
        slot: usize,
        content: usize,
        equilibrium: Equilibrium,
        auditor: &mut Option<Auditor>,
    ) {
        if let Some(aud) = auditor.as_mut() {
            aud.check_equilibrium(epoch, content, &equilibrium);
        }
        let converged = equilibrium.report.converged;
        let iterations = equilibrium.report.iterations;
        if self.policy.install_equilibrium(content, equilibrium) {
            self.reprice_generation += 1;
            if self.recorder.enabled() {
                self.recorder.event(
                    "sim.reprice.swap",
                    &[
                        ("generation", self.reprice_generation.into()),
                        ("content", content.into()),
                        ("epoch", epoch.into()),
                        ("slot", slot.into()),
                        ("converged", converged.into()),
                        ("iterations", iterations.into()),
                    ],
                );
            }
        }
    }

    /// Build the slot-boundary snapshot handed to the attached
    /// [`EngineControl`]. `epoch`/`slot` index the *next* slot to run
    /// (`epoch == cfg.epochs` with `finished` for the final publication);
    /// every field reads end-of-previous-slot state only.
    fn build_snapshot(
        &self,
        epoch: usize,
        slot: usize,
        series: &[SlotMetrics],
        auditor: Option<&Auditor>,
        finished: bool,
    ) -> SimSnapshot {
        let global_slot = (epoch * self.cfg.slots_per_epoch + slot) as u64;
        let total_slots = (self.cfg.epochs * self.cfg.slots_per_epoch) as u64;
        let occupancy: Vec<f64> = self.edps.iter().map(|e| e.q[0]).collect();
        let occupancy_hist = Histogram::from_values(&occupancy);
        // The previous slot's cleared market leaves its Eq. (5) pricers
        // and k = 0 strategy column in the scratch; before the first slot
        // the scratch is empty and there is no price distribution yet.
        let s = &self.market_scratch;
        let price_hist = (!s.pricers.is_empty() && !s.x0.is_empty())
            .then(|| {
                let prices: Vec<f64> = s.x0.iter().map(|&x| s.pricers[0].price(x)).collect();
                Histogram::from_values(&prices)
            })
            .flatten();
        SimSnapshot {
            scheme: self.policy.name().to_string(),
            epoch,
            slot,
            global_slot,
            total_slots,
            t: global_slot as f64 * self.cfg.slot_dt(),
            finished,
            num_edps: self.cfg.num_edps,
            num_requesters: self.cfg.num_requesters,
            num_contents: self.cfg.num_contents,
            occupancy,
            occupancy_hist,
            price_hist,
            last_slot: series.last().copied(),
            audit: auditor.map(|a| a.status()),
            net: self.shard_sample,
        }
    }

    /// Pre-handover state for the I6 gate: the serving map and the per-EDP
    /// accumulator totals as they stand immediately before an
    /// epoch-boundary re-association.
    fn handover_snapshot(&self) -> HandoverSnapshot {
        HandoverSnapshot {
            serving: (0..self.topology.num_requesters())
                .map(|j| self.topology.serving(j))
                .collect(),
            totals: population_totals(&self.edps),
        }
    }
}

/// Pre-handover state captured for the I6 audit gate.
struct HandoverSnapshot {
    /// `serving[j]` before the re-association.
    serving: Vec<usize>,
    /// Population accumulator totals before the re-association.
    totals: PopulationTotals,
}

/// Σ over the population of each [`EdpMetrics`] field, shaped for the
/// auditor's end-of-run (I1–I3) and handover (I6) comparisons.
fn population_totals(edps: &[Edp]) -> PopulationTotals {
    let mut totals = PopulationTotals::default();
    for e in edps {
        let m = &e.metrics;
        totals.trading_income += m.trading_income;
        totals.sharing_benefit += m.sharing_benefit;
        totals.placement_cost += m.placement_cost;
        totals.staleness_cost += m.staleness_cost;
        totals.sharing_cost += m.sharing_cost;
        totals.requests_served += m.requests_served;
        totals.case_counts.0 += m.case_counts.0;
        totals.case_counts.1 += m.case_counts.1;
        totals.case_counts.2 += m.case_counts.2;
    }
    totals
}

/// Audit the served-by partition immediately after a handover: walk every
/// served list once, counting requesters that land in exactly one list
/// whose EDP matches their own serving pointer, and requesters that were
/// double-counted. O(M + J) with one reusable byte per requester.
fn handover_stats(topology: &Topology, before_serving: &[usize]) -> HandoverStats {
    let j = topology.num_requesters();
    let mut seen = vec![false; j];
    let mut assigned = 0u64;
    let mut duplicates = 0u64;
    for i in 0..topology.num_edps() {
        for &r in topology.served_by(i) {
            if seen[r] {
                duplicates += 1;
            } else {
                seen[r] = true;
                if topology.serving(r) == i {
                    assigned += 1;
                }
            }
        }
    }
    let moved = (0..j)
        .filter(|&r| topology.serving(r) != before_serving[r])
        .count() as u64;
    HandoverStats {
        requesters: j as u64,
        assigned,
        duplicates,
        moved,
    }
}

/// Resolve the configured worker-thread count (`0` = one per core).
fn thread_count(worker_threads: usize) -> usize {
    if worker_threads > 0 {
        worker_threads
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Minimum flattened trade entries per worker before the sharded market
/// precompute spawns threads; below this the inline fill beats the
/// thread-spawn overhead (the result is identical either way — every
/// entry is an independent pure call).
const MIN_TRADE_ENTRIES_PER_THREAD: usize = 256;

/// Resolve one trade entry against frozen slot state: the Eq. (5) price
/// for the buyer's strategy, the center's best-stocked qualified peer
/// ("a suitable EDP", §IV-B — smallest remaining space, which both
/// completes the most data and minimizes the buyer's fee), and the
/// case-1/2/3 outcome. Pure in its inputs, which is what makes the sharded
/// precompute bit-identical across thread counts by construction.
#[allow(clippy::too_many_arguments)]
fn trade_entry(
    e: &Edp,
    k: usize,
    requests: u64,
    q_size: f64,
    alpha_qk: f64,
    pricer: &SharedSupplyPricer,
    sharers: &TwoSmallest,
    sharing_allowed: bool,
    rate_edge: f64,
    params: &Params,
) -> (MarketOutcome, f64) {
    let price = pricer.price(e.x[k]);
    let peer = if sharing_allowed && e.q[k] > alpha_qk {
        sharers.min_excluding(e.id)
    } else {
        None
    };
    let out = resolve_trade(
        q_size,
        alpha_qk,
        e.q[k],
        peer,
        price,
        requests,
        rate_edge,
        params.center_rate,
        params.eta2,
        params.p_bar,
    );
    (out, price)
}

/// Rate-type costs one EDP accrues during the parallel phase of one slot
/// (Eq. (8) placement and the Eq. (9) center-download term). Collected
/// per EDP so the sequential slot aggregation is independent of how the
/// population was chunked across threads.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseCost {
    placement: f64,
    rate_staleness: f64,
}

/// The `market.slot` telemetry payload for one cleared slot. The price
/// extremes are omitted on zero-volume slots: nobody was charged, so the
/// `±inf` tracker sentinels are not observations and would only pollute
/// downstream aggregations (JSON renders them as strings).
fn slot_event_fields(
    epoch: usize,
    slot: usize,
    agg: &SlotAggregates,
) -> Vec<(&'static str, Value)> {
    let mut fields: Vec<(&'static str, Value)> = vec![
        ("epoch", epoch.into()),
        ("slot", slot.into()),
        ("nanos", agg.nanos.into()),
        ("volume", agg.volume.into()),
        ("case1", agg.case1.into()),
        ("case2", agg.case2.into()),
        ("case3", agg.case3.into()),
        ("mean_price", agg.mean_price.into()),
    ];
    if agg.volume > 0 {
        fields.push(("min_price", agg.min_price.into()));
        fields.push(("max_price", agg.max_price.into()));
    }
    fields
}

#[derive(Debug, Clone, Copy)]
struct SlotAggregates {
    income: f64,
    staleness: f64,
    share_benefit: f64,
    /// Sharing fees paid by buyers this slot (mirror of `share_benefit`).
    sharing_cost: f64,
    /// Eq. (8) placement cost accrued in the parallel phase this slot.
    placement: f64,
    utility: f64,
    mean_price: f64,
    /// Wall-clock nanoseconds this slot's clearing took.
    nanos: u64,
    /// Requests served across the population this slot.
    volume: u64,
    /// Per-case trade tallies (own cache / peer share / center download).
    case1: u64,
    case2: u64,
    case3: u64,
    /// Extremes of the Eq. (5) prices actually charged to requesting EDPs
    /// this slot (±∞ when nobody requested anything).
    min_price: f64,
    max_price: f64,
}

impl Default for SlotAggregates {
    fn default() -> Self {
        Self {
            income: 0.0,
            staleness: 0.0,
            share_benefit: 0.0,
            sharing_cost: 0.0,
            placement: 0.0,
            utility: 0.0,
            mean_price: 0.0,
            nanos: 0,
            volume: 0,
            case1: 0,
            case2: 0,
            case3: 0,
            min_price: f64::INFINITY,
            max_price: f64::NEG_INFINITY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{MostPopularCaching, RandomReplacement};

    fn small_sim(policy: Box<dyn CachingPolicy>) -> Simulation {
        Simulation::new(SimConfig::small(), policy).unwrap()
    }

    #[test]
    fn rr_simulation_runs_and_accumulates() {
        let mut sim = small_sim(Box::new(RandomReplacement));
        let report = sim.run();
        assert_eq!(report.scheme, "RR");
        assert_eq!(report.per_edp.len(), 12);
        assert_eq!(report.series.len(), 20);
        let total_requests: u64 = report.per_edp.iter().map(|m| m.requests_served).sum();
        assert!(total_requests > 0, "no requests were served");
        assert!(report.mean_trading_income() > 0.0);
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let r1 = small_sim(Box::new(RandomReplacement)).run();
        let r2 = small_sim(Box::new(RandomReplacement)).run();
        assert_eq!(r1.per_edp, r2.per_edp);
        for (a, b) in r1.series.iter().zip(&r2.series) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn states_remain_in_bounds() {
        // The bound is per content: q_k ∈ [0, Q_k], with Q_k from the
        // resolved (possibly heterogeneous) sizes — checking the global
        // `params.q_size` would miss violations whenever Q_k < q_size.
        let check = |sim: &Simulation| {
            for e in &sim.edps {
                for (k, &q) in e.q.iter().enumerate() {
                    assert!(
                        (0.0..=sim.q_sizes[k]).contains(&q),
                        "content {k}: q = {q} outside [0, {}]",
                        sim.q_sizes[k]
                    );
                }
                for &x in &e.x {
                    assert!((0.0..=1.0).contains(&x));
                }
            }
        };
        let mut sim = small_sim(Box::new(MostPopularCaching::default()));
        let _ = sim.run();
        check(&sim);
        // Heterogeneous catalog: contents strictly smaller than the global
        // q_size would previously slip through the global bound.
        let mut cfg = SimConfig::small();
        cfg.content_sizes = vec![0.3, 1.0, 0.15, 0.6];
        let mut sim = Simulation::new(cfg, Box::new(MostPopularCaching::default())).unwrap();
        let _ = sim.run();
        check(&sim);
    }

    #[test]
    fn run_is_bit_identical_across_thread_counts() {
        let report = |threads: usize| {
            let mut cfg = SimConfig::small();
            cfg.worker_threads = threads;
            Simulation::new(cfg, Box::new(MostPopularCaching::default()))
                .unwrap()
                .run()
        };
        let baseline = report(1);
        for threads in [2, 8] {
            let r = report(threads);
            assert_eq!(baseline.per_edp, r.per_edp, "with {threads} threads");
            assert_eq!(baseline.series.len(), r.series.len());
            for (a, b) in baseline.series.iter().zip(&r.series) {
                assert_eq!(a, b, "with {threads} threads");
            }
        }
    }

    #[test]
    fn attached_control_observes_every_slot_without_perturbing_the_run() {
        use crate::snapshot::{EngineControl, SimSnapshot};
        use std::sync::Mutex;

        struct Probe {
            snaps: Mutex<Vec<SimSnapshot>>,
        }
        impl EngineControl for Probe {
            fn at_slot_boundary(&self, snapshot: SimSnapshot) {
                self.snaps.lock().unwrap().push(snapshot);
            }
        }

        let run = |control: Option<Arc<Probe>>| {
            let mut cfg = SimConfig::small();
            cfg.audit = true;
            let mut sim = Simulation::new(cfg, Box::new(MostPopularCaching::default())).unwrap();
            if let Some(ctl) = control {
                sim.set_control(ctl);
            }
            sim.run()
        };
        let free = run(None);
        let probe = Arc::new(Probe {
            snaps: Mutex::new(Vec::new()),
        });
        let observed = run(Some(Arc::clone(&probe)));

        // Observation never perturbs: bit-identical reports.
        assert_eq!(free.per_edp, observed.per_edp);
        assert_eq!(free.series, observed.series);

        // One snapshot per slot boundary plus the final publication.
        let snaps = probe.snaps.lock().unwrap();
        let total = SimConfig::small().epochs * SimConfig::small().slots_per_epoch;
        assert_eq!(snaps.len(), total + 1);
        for (i, s) in snaps.iter().enumerate() {
            assert_eq!(s.global_slot, i as u64);
            assert_eq!(s.total_slots, total as u64);
            assert_eq!(s.occupancy.len(), s.num_edps);
            assert_eq!(s.finished, i == total);
            // Audit counters track completed slots.
            assert_eq!(s.audit.unwrap().slots_checked, i);
        }
        // The first boundary precedes any cleared market; afterwards the
        // previous slot's price distribution is always available.
        assert!(snaps[0].price_hist.is_none());
        assert!(snaps[0].last_slot.is_none());
        assert!(snaps[1..].iter().all(|s| s.price_hist.is_some()));
        let last = snaps.last().unwrap();
        assert!(last.finished);
        assert_eq!(last.last_slot, free.series.last().copied());
        assert!((last.progress() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scenario_reprice_swaps_audits_and_reports_through_telemetry() {
        use mfgcp_obs::{schema, MemorySink, RecorderHandle, Value};
        let mut cfg = SimConfig::small();
        cfg.audit = true;
        cfg.reprice_slot = Some(10);
        let policy = crate::baselines::MfgCpPolicy::new(cfg.params.clone()).unwrap();
        let mut sim = Simulation::new(cfg, Box::new(policy)).unwrap();
        let sink = std::sync::Arc::new(MemorySink::new());
        sim.set_recorder(RecorderHandle::new(sink.clone()));
        let report = sim.run();

        // Exactly one generation-counted swap, and the repriced
        // equilibrium passed the same I4 gate as the epoch solves.
        assert_eq!(sim.reprice_generation(), 1);
        let audit = report.audit.unwrap();
        assert!(audit.is_clean(), "violations: {:?}", audit.violations);

        let events = sink.events();
        let text: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
        assert_eq!(schema::validate_str(&text).unwrap(), events.len());
        let swaps: Vec<_> = events
            .iter()
            .filter(|e| e.name == "sim.reprice.swap")
            .collect();
        assert_eq!(swaps.len(), 1);
        let swap = swaps[0];
        assert_eq!(swap.field("generation"), Some(&Value::U64(1)));
        assert_eq!(swap.field("content"), Some(&Value::U64(0)));
        assert_eq!(swap.field("slot"), Some(&Value::U64(10)));
        assert_eq!(swap.field("converged"), Some(&Value::Bool(true)));

        // The swap steers the run: the repriced half of the series must
        // diverge from a run that never swapped.
        let mut free_cfg = SimConfig::small();
        free_cfg.audit = true;
        let free_policy = crate::baselines::MfgCpPolicy::new(free_cfg.params.clone()).unwrap();
        let free = Simulation::new(free_cfg, Box::new(free_policy))
            .unwrap()
            .run();
        assert_eq!(free.series[..10], report.series[..10], "pre-swap slots");
        assert_ne!(free.series[10..], report.series[10..], "post-swap slots");
    }

    #[test]
    fn reprice_run_is_bit_identical_across_thread_counts() {
        let report = |threads: usize| {
            let mut cfg = SimConfig::small();
            cfg.worker_threads = threads;
            cfg.reprice_slot = Some(7);
            let policy = crate::baselines::MfgCpPolicy::new(cfg.params.clone()).unwrap();
            Simulation::new(cfg, Box::new(policy)).unwrap().run()
        };
        let baseline = report(1);
        for threads in [2, 8] {
            let r = report(threads);
            assert_eq!(baseline.per_edp, r.per_edp, "with {threads} threads");
            assert_eq!(baseline.series.len(), r.series.len());
            for (a, b) in baseline.series.iter().zip(&r.series) {
                assert_eq!(a, b, "with {threads} threads");
            }
        }
    }

    #[test]
    fn control_plane_equilibrium_swap_is_installed_and_counted() {
        use crate::snapshot::PreparedEquilibrium;
        use std::sync::Mutex;

        struct OneShot {
            pending: Mutex<Option<PreparedEquilibrium>>,
        }
        impl EngineControl for OneShot {
            fn at_slot_boundary(&self, _snapshot: SimSnapshot) {}
            fn take_prepared_equilibrium(&self) -> Option<PreparedEquilibrium> {
                self.pending.lock().unwrap().take()
            }
        }
        let one_shot = |params: &Params| {
            let eq = mfgcp_core::MfgSolver::new(params.clone())
                .unwrap()
                .solve()
                .unwrap();
            Arc::new(OneShot {
                pending: Mutex::new(Some(PreparedEquilibrium {
                    content: 0,
                    equilibrium: eq,
                })),
            })
        };

        // MFG-CP accepts the hot-swap: one generation, audit-clean.
        let mut cfg = SimConfig::small();
        cfg.audit = true;
        let policy = crate::baselines::MfgCpPolicy::new(cfg.params.clone()).unwrap();
        let ctl = one_shot(&cfg.params);
        let mut sim = Simulation::new(cfg, Box::new(policy)).unwrap();
        sim.set_control(ctl);
        let report = sim.run();
        assert_eq!(sim.reprice_generation(), 1);
        assert!(report.audit.unwrap().is_clean());

        // A policy with no equilibria refuses the install; the prepared
        // solve is still audited but no generation is burned.
        let cfg = SimConfig::small();
        let ctl = one_shot(&cfg.params);
        let mut sim = Simulation::new(cfg, Box::new(MostPopularCaching::default())).unwrap();
        sim.set_control(ctl);
        let _ = sim.run();
        assert_eq!(sim.reprice_generation(), 0);
    }

    #[test]
    fn sharded_market_is_bit_identical_across_thread_counts() {
        // The sharded trade loop (flattened entries precomputed on scoped
        // threads) at 1, 2 and 4 threads, with mobility so epoch-boundary
        // handovers reshuffle the shards mid-run. At 1 thread the
        // precompute runs inline, in fold order. The population is sized
        // so per-slot trade entries exceed 4 × MIN_TRADE_ENTRIES_PER_THREAD
        // and every multi-thread run genuinely spawns all its threads.
        let report = |threads: usize| {
            let mut cfg = SimConfig::small();
            cfg.epochs = 2;
            cfg.slots_per_epoch = 6;
            cfg.num_edps = 128;
            cfg.params.num_edps = 128;
            cfg.num_contents = 10;
            cfg.num_requesters = 8000;
            cfg.request_prob = 0.9;
            cfg.mobility = Some(mfgcp_net::RandomWaypoint::default());
            cfg.worker_threads = threads;
            Simulation::new(cfg, Box::new(RandomReplacement))
                .unwrap()
                .run()
        };
        let reference = report(1);
        let (c1, c2, c3) = reference.case_totals();
        let entries_per_slot = (c1 + c2 + c3) / reference.series.len() as u64;
        assert!(
            entries_per_slot > 4 * MIN_TRADE_ENTRIES_PER_THREAD as u64,
            "only {entries_per_slot} trade entries per slot"
        );
        for threads in [2, 4] {
            let sharded = report(threads);
            assert_eq!(reference.per_edp, sharded.per_edp, "with {threads} threads");
            assert_eq!(reference.series.len(), sharded.series.len());
            for (a, b) in reference.series.iter().zip(&sharded.series) {
                assert_eq!(a, b, "with {threads} threads");
            }
        }
    }

    #[test]
    fn telemetry_neither_perturbs_the_run_nor_breaks_the_schema() {
        use mfgcp_obs::{schema, Kind, MemorySink, RecorderHandle};
        let reference = small_sim(Box::new(MostPopularCaching::default())).run();
        let mut sim = small_sim(Box::new(MostPopularCaching::default()));
        let sink = std::sync::Arc::new(MemorySink::new());
        sim.set_recorder(RecorderHandle::new(sink.clone()));
        let recorded = sim.run();
        // Bit-identical with recording on.
        assert_eq!(reference.per_edp, recorded.per_edp);
        assert_eq!(reference.series.len(), recorded.series.len());
        for (a, b) in reference.series.iter().zip(&recorded.series) {
            assert_eq!(a, b);
        }
        // The emitted stream passes the JSONL schema validator.
        let events = sink.events();
        let text: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
        assert_eq!(schema::validate_str(&text).unwrap(), events.len());
        // One market.slot event per simulated slot, volumes consistent
        // with the per-EDP served-request tallies.
        let slots: Vec<_> = events.iter().filter(|e| e.name == "market.slot").collect();
        assert_eq!(slots.len(), recorded.series.len());
        let volume: u64 = slots
            .iter()
            .map(|e| match e.field("volume") {
                Some(&mfgcp_obs::Value::U64(v)) => v,
                other => panic!("bad volume field: {other:?}"),
            })
            .sum();
        let served: u64 = recorded.per_edp.iter().map(|m| m.requests_served).sum();
        assert_eq!(volume, served);
        // One prepare-epoch span per epoch.
        let preps = events
            .iter()
            .filter(|e| e.name == "sim.prepare_epoch" && e.kind == Kind::SpanOpen)
            .count();
        assert_eq!(preps, recorded.epochs);
    }

    #[test]
    fn mobility_emits_net_events_through_the_sim_recorder() {
        use mfgcp_obs::{schema, MemorySink, RecorderHandle};
        let mut cfg = SimConfig::small();
        cfg.epochs = 2; // epoch 0 skips the no-op re-association
        cfg.mobility = Some(mfgcp_net::RandomWaypoint::default());
        let mut sim = Simulation::new(cfg, Box::new(RandomReplacement)).unwrap();
        let sink = std::sync::Arc::new(MemorySink::new());
        sim.set_recorder(RecorderHandle::new(sink.clone()));
        let _ = sim.run();
        let events = sink.events();
        let text: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
        assert_eq!(schema::validate_str(&text).unwrap(), events.len());
        // Exactly epochs − 1 re-associations: the epoch-0 boundary starts
        // from the association the topology was just built with, so the
        // engine must not burn an update (and its shard-gauge emission) on
        // a pass that cannot move anybody.
        let reassociations = events
            .iter()
            .filter(|e| e.name == "net.reassociation")
            .count();
        assert_eq!(reassociations, 1, "one re-association per later epoch");
        assert!(
            events.iter().any(|e| e.name == "net.mobility.step"),
            "no mobility arrivals in a 20-slot walk"
        );
        assert!(
            events.iter().any(|e| e.name == "net.shard.occupancy"),
            "no shard gauges from the epoch-boundary reassociation"
        );
    }

    #[test]
    fn epoch_zero_association_is_untouched() {
        // The skip is provably a no-op — same positions, same grid, same
        // association — so a single-epoch mobile run must serve exactly
        // the partition the topology was built with, and a static run must
        // be bit-identical whether or not mobility is configured with a
        // zero-speed... (zero speed is rejected, so compare the serving
        // map directly instead).
        let mut cfg = SimConfig::small();
        cfg.mobility = Some(mfgcp_net::RandomWaypoint::default());
        let sim = Simulation::new(cfg.clone(), Box::new(RandomReplacement)).unwrap();
        let initial: Vec<usize> = (0..cfg.num_requesters)
            .map(|j| sim.topology.serving(j))
            .collect();
        let mut sim = sim;
        let _ = sim.run();
        // One epoch: no boundary was crossed, so the serving map at the
        // end is still the initial association (mobility moved positions
        // every slot, but association only changes at epoch boundaries).
        let after: Vec<usize> = (0..cfg.num_requesters)
            .map(|j| sim.topology.serving(j))
            .collect();
        assert_eq!(initial, after, "epoch-0 association was disturbed");
    }

    #[test]
    fn static_runs_do_not_depend_on_the_interferer_budget() {
        // The engine consumes only serving-link fading, and every link
        // draws from its own per-link counter stream, so on a static
        // topology the report cannot depend on how many interferers the
        // channel tracks. At 64 EDPs, one tracked interferer truncates
        // almost everything and 32 still truncates.
        let run = |k_int: usize| {
            let mut cfg = SimConfig::small();
            cfg.num_edps = 64;
            cfg.params.num_edps = 64;
            cfg.network.k_int = k_int;
            Simulation::new(cfg, Box::new(MostPopularCaching::default()))
                .unwrap()
                .run()
        };
        let (narrow, wide) = (run(1), run(32));
        assert!(!narrow.series.is_empty());
        assert_eq!(format!("{narrow:?}"), format!("{wide:?}"));
    }

    #[test]
    fn k0_mean_price_matches_the_per_edp_reference() {
        // Regression for the shared-sum rewrite: the k = 0 mean-price
        // statistic must equal the mean of per-EDP Eq. (5) prices from the
        // O(M) reference, averaged over every EDP — idle ones included
        // (the seed implementation priced before its requests == 0
        // early-continue).
        use mfgcp_core::finite_population_price;
        let mut sim = small_sim(Box::new(MostPopularCaching::default()));
        for (i, e) in sim.edps.iter_mut().enumerate() {
            e.x[0] = 0.05 + 0.9 * (i as f64) / 11.0;
        }
        let m = sim.edps.len();
        let batches = vec![RequestBatch::empty(sim.cfg.num_contents); m];
        let mean_fadings = vec![sim.cfg.params.upsilon_h; m];
        let agg = sim.clear_market(&batches, &mean_fadings, 0.1);
        let strategies: Vec<f64> = sim.edps.iter().map(|e| e.x[0]).collect();
        let oracle = (0..m)
            .map(|i| {
                finite_population_price(
                    sim.cfg.params.p_hat,
                    sim.cfg.params.eta1,
                    sim.q_sizes[0],
                    &strategies,
                    i,
                )
            })
            .sum::<f64>()
            / m as f64;
        assert!(
            (agg.mean_price - oracle).abs() < 1e-9,
            "{} vs oracle {oracle}",
            agg.mean_price
        );
    }

    #[test]
    fn non_sharing_policy_records_no_sharing_flows() {
        let mut sim = small_sim(Box::new(RandomReplacement));
        let report = sim.run();
        assert_eq!(report.mean_sharing_benefit(), 0.0);
        let (_, case2, _) = report.case_totals();
        assert_eq!(case2, 0, "sharing-disabled scheme must never hit case 2");
    }

    #[test]
    fn symmetric_market_has_low_inequality() {
        // The mean-field equilibrium is symmetric; the finite market's
        // utility inequality should be modest.
        let mut sim = small_sim(Box::new(MostPopularCaching::default()));
        let report = sim.run();
        let g = report.gini_utility();
        assert!((0.0..=1.0).contains(&g));
        assert!(g < 0.5, "suspiciously unequal market: gini {g}");
    }

    #[test]
    fn non_finite_policy_decisions_are_neutralized() {
        struct Poison;
        impl CachingPolicy for Poison {
            fn name(&self) -> &'static str {
                "POISON"
            }
            fn allows_sharing(&self) -> bool {
                false
            }
            fn decide(&self, ctx: &DecisionContext, _rng: &mut mfgcp_sde::SimRng) -> f64 {
                if ctx.content == 0 {
                    f64::NAN
                } else {
                    f64::INFINITY
                }
            }
        }
        let mut sim = small_sim(Box::new(Poison));
        let report = sim.run();
        assert!(report.mean_utility().is_finite());
        for e in &sim.edps {
            assert!(e.q.iter().all(|q| q.is_finite()));
            assert!(e.x.iter().all(|x| (0.0..=1.0).contains(x)));
        }
    }

    #[test]
    fn slot_series_reconciles_with_per_edp_eq10() {
        // Invariant I3: summing the slot series over the whole run must
        // reproduce the per-EDP accumulated totals for every Eq. (10)
        // term — the series previously dropped the Eq. (8) placement cost
        // and the Eq. (9) center-download term (both accrued only on the
        // per-EDP side), so its utility overstated the market's.
        let policy = crate::baselines::MfgCpPolicy::new(SimConfig::small().params).unwrap();
        let mut sim = small_sim(Box::new(policy));
        let report = sim.run();
        let m = report.per_edp.len() as f64;
        let series_sum =
            |f: fn(&SlotMetrics) -> f64| -> f64 { report.series.iter().map(f).sum::<f64>() * m };
        let edp_sum = |f: fn(&EdpMetrics) -> f64| -> f64 { report.per_edp.iter().map(f).sum() };
        let pairs = [
            (
                "utility",
                series_sum(|s| s.slot_utility),
                edp_sum(EdpMetrics::utility),
            ),
            (
                "trading_income",
                series_sum(|s| s.slot_trading_income),
                edp_sum(|e| e.trading_income),
            ),
            (
                "sharing_benefit",
                series_sum(|s| s.slot_sharing_benefit),
                edp_sum(|e| e.sharing_benefit),
            ),
            (
                "staleness_cost",
                series_sum(|s| s.slot_staleness_cost),
                edp_sum(|e| e.staleness_cost),
            ),
            (
                "placement_cost",
                series_sum(|s| s.slot_placement_cost),
                edp_sum(|e| e.placement_cost),
            ),
            (
                "sharing_cost",
                series_sum(|s| s.slot_sharing_cost),
                edp_sum(|e| e.sharing_cost),
            ),
        ];
        for (what, series, per_edp) in pairs {
            assert!(
                (series - per_edp).abs() <= 1e-9 * per_edp.abs().max(1.0),
                "{what}: slot series {series} vs per-EDP {per_edp}"
            );
        }
        // The fix must not have turned the flows trivial.
        assert!(edp_sum(|e| e.placement_cost) > 0.0);
    }

    #[test]
    fn audited_run_is_clean_and_reported() {
        let cfg = SimConfig {
            audit: true,
            ..SimConfig::small()
        };
        let policy = crate::baselines::MfgCpPolicy::new(cfg.params.clone()).unwrap();
        let mut sim = Simulation::new(cfg, Box::new(policy)).unwrap();
        let report = sim.run();
        let audit = report.audit.expect("audit was requested");
        assert!(audit.is_clean(), "{:?}", audit.violations);
        assert_eq!(audit.slots_checked, report.series.len());
        assert!(audit.equilibria_checked > 0, "no equilibria were gated");
        // Audit off ⇒ no report, and the run itself is unperturbed.
        let policy = crate::baselines::MfgCpPolicy::new(SimConfig::small().params).unwrap();
        let plain = small_sim(Box::new(policy)).run();
        assert!(plain.audit.is_none());
        assert_eq!(plain.per_edp, report.per_edp);
    }

    #[test]
    fn sampled_audit_stays_clean_and_observes_every_slot() {
        let cfg = SimConfig {
            audit: true,
            audit_sample: 4,
            ..SimConfig::small()
        };
        let policy = crate::baselines::MfgCpPolicy::new(cfg.params.clone()).unwrap();
        let mut sim = Simulation::new(cfg, Box::new(policy)).unwrap();
        let report = sim.run();
        let audit = report.audit.expect("audit was requested");
        assert!(audit.is_clean(), "{:?}", audit.violations);
        // The cumulative I1–I3 accumulators still see every slot even
        // though only every 4th runs the per-slot checks.
        assert_eq!(audit.slots_checked, report.series.len());
    }

    #[test]
    fn idle_slot_event_omits_price_extremes() {
        // A zero-volume slot used to emit `min_price = inf` /
        // `max_price = -inf` sentinels (serialized as JSON strings); the
        // two fields are now simply absent.
        let idle = SlotAggregates::default();
        let fields = slot_event_fields(3, 7, &idle);
        assert!(fields
            .iter()
            .all(|(k, _)| *k != "min_price" && *k != "max_price"));
        assert!(fields.iter().any(|(k, _)| *k == "mean_price"));
        // A slot with volume carries both extremes as finite gauges.
        let busy = SlotAggregates {
            volume: 5,
            min_price: 1.25,
            max_price: 4.5,
            ..SlotAggregates::default()
        };
        let fields = slot_event_fields(0, 0, &busy);
        let get = |name: &str| {
            fields
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(get("min_price"), Some(mfgcp_obs::Value::F64(1.25)));
        assert_eq!(get("max_price"), Some(mfgcp_obs::Value::F64(4.5)));
        // End-to-end: clearing a slot where nobody requests anything
        // produces the idle shape straight from the engine's aggregates.
        let mut sim = small_sim(Box::new(MostPopularCaching::default()));
        let m = sim.edps.len();
        let batches = vec![RequestBatch::empty(sim.cfg.num_contents); m];
        let mean_fadings = vec![sim.cfg.params.upsilon_h; m];
        let agg = sim.clear_market(&batches, &mean_fadings, 0.1);
        assert_eq!(agg.volume, 0);
        let fields = slot_event_fields(0, 0, &agg);
        assert!(fields
            .iter()
            .all(|(k, _)| *k != "min_price" && *k != "max_price"));
    }

    #[test]
    fn sharing_money_is_conserved() {
        // Every sharing fee paid by a buyer lands as exactly one peer's
        // sharing benefit — the market neither mints nor burns money.
        let cfg = SimConfig {
            epochs: 2,
            slots_per_epoch: 30,
            ..SimConfig::small()
        };
        let policy = crate::baselines::MfgCpPolicy::new(cfg.params.clone()).unwrap();
        let mut sim = Simulation::new(cfg, Box::new(policy)).unwrap();
        let report = sim.run();
        let paid: f64 = report.per_edp.iter().map(|m| m.sharing_cost).sum();
        let earned: f64 = report.per_edp.iter().map(|m| m.sharing_benefit).sum();
        assert!(
            (paid - earned).abs() < 1e-9,
            "paid {paid} vs earned {earned}"
        );
    }

    #[test]
    fn mobile_requesters_change_the_market_but_not_its_validity() {
        // Two epochs so the walkers cross at least one epoch boundary:
        // with per-link counter-based fading streams, mobility reaches the
        // market through real handovers (re-association changes which
        // serving links feed `mean_fading`), not through RNG interleaving
        // as in the dense-matrix days.
        let mut cfg = SimConfig::small();
        cfg.epochs = 2;
        cfg.mobility = Some(mfgcp_net::RandomWaypoint::default());
        let mut sim = Simulation::new(cfg, Box::new(RandomReplacement)).unwrap();
        let mobile = sim.run();
        let mut static_cfg = SimConfig::small();
        static_cfg.epochs = 2;
        let static_report = Simulation::new(static_cfg, Box::new(RandomReplacement))
            .unwrap()
            .run();
        assert!(mobile.mean_trading_income() > 0.0);
        // The handovers reroute serving links, so the two runs diverge
        // (same seed otherwise).
        assert!(
            (mobile.mean_utility() - static_report.mean_utility()).abs() > 1e-9,
            "mobility had no effect"
        );
        for s in &mobile.series {
            assert!(s.mean_remaining_space.is_finite());
        }
    }

    #[test]
    fn heterogeneous_content_sizes_respected() {
        let mut cfg = SimConfig::small();
        cfg.content_sizes = vec![0.5, 1.0, 0.25, 0.8];
        let mut sim = Simulation::new(cfg, Box::new(RandomReplacement)).unwrap();
        let report = sim.run();
        assert!(report.mean_trading_income() > 0.0);
        for e in &sim.edps {
            for (k, &q) in e.q.iter().enumerate() {
                assert!(
                    (0.0..=sim.q_sizes[k]).contains(&q),
                    "content {k}: q = {q} outside [0, {}]",
                    sim.q_sizes[k]
                );
            }
        }
    }

    #[test]
    fn invalid_content_sizes_rejected() {
        let mut cfg = SimConfig::small();
        cfg.content_sizes = vec![0.5]; // wrong length
        assert!(Simulation::new(cfg, Box::new(RandomReplacement)).is_err());
        let mut cfg = SimConfig::small();
        cfg.content_sizes = vec![0.5, 1.5, 0.5, 0.5]; // out of range
        assert!(Simulation::new(cfg, Box::new(RandomReplacement)).is_err());
    }

    #[test]
    fn trace_category_mismatch_is_rejected() {
        let cfg = SimConfig::small();
        let trace = Trace::new(2, vec![1.0, 1.0]).unwrap();
        let err = Simulation::with_trace(cfg, Box::new(RandomReplacement), trace);
        assert!(matches!(
            err,
            Err(SimError::BadConfig { name: "trace", .. })
        ));
    }
}
