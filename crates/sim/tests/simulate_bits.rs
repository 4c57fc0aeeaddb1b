//! Bit-level regression pins for `Simulation::run`: a digest of every
//! scheme's report at three configurations and two worker-thread counts must
//! match the constants below exactly. Performance work on the slot loop
//! (request tallying, urgency factors, the parallel EDP phase) has to keep
//! every output bit, and this is the test that says so.
//!
//! A change that moves the constants changes the simulated dynamics and
//! must say why. Gated to Linux, where the pinned libm bits were taken.
#![cfg(target_os = "linux")]

use mfgcp_core::Params;
use mfgcp_net::RandomWaypoint;
use mfgcp_sim::baselines::{MfgCpPolicy, MostPopularCaching, RandomReplacement, Udcs};
use mfgcp_sim::{CachingPolicy, SimConfig, SimReport, Simulation};

/// The five §V-A schemes, built the way `mfgcp simulate` builds them.
fn schemes(params: &Params) -> Vec<Box<dyn CachingPolicy>> {
    vec![
        Box::new(RandomReplacement),
        Box::new(MostPopularCaching::default()),
        Box::new(Udcs::default()),
        Box::new(MfgCpPolicy::without_sharing(params.clone()).expect("valid params")),
        Box::new(MfgCpPolicy::new(params.clone()).expect("valid params")),
    ]
}

/// `(mean utility bits, case totals, fold of every slot-series field)`.
type Digest = (u64, (u64, u64, u64), u64);

fn digest(report: &SimReport) -> Digest {
    let series = report.series.iter().fold(0u64, |mut acc, s| {
        for v in [
            s.t,
            s.mean_remaining_space,
            s.mean_caching_rate,
            s.mean_price,
            s.slot_utility,
            s.slot_trading_income,
            s.slot_sharing_benefit,
            s.slot_staleness_cost,
            s.slot_placement_cost,
            s.slot_sharing_cost,
        ] {
            acc = acc.rotate_left(7) ^ v.to_bits();
        }
        acc
    });
    (
        report.mean_utility().to_bits(),
        report.case_totals(),
        series,
    )
}

/// Mobile requesters, two epochs (one re-association) and a full audit:
/// long enough for case-2 peer sharing to fire under MFG-CP.
fn mobility_audit() -> SimConfig {
    SimConfig {
        num_edps: 30,
        num_requesters: 120,
        num_contents: 4,
        epochs: 2,
        slots_per_epoch: 30,
        params: Params {
            time_steps: 12,
            grid_h: 8,
            grid_q: 28,
            num_edps: 30,
            ..Params::default()
        },
        mobility: Some(RandomWaypoint::default()),
        audit: true,
        audit_sample: 1,
        ..SimConfig::default()
    }
}

/// Mobile requesters over a heterogeneous catalog, with enough EDPs that
/// at three worker threads some content's best-stocked sharer sits in
/// the second EDP chunk while the first chunk holds sharers too — the
/// case where the market's per-chunk population passes must merge
/// exactly as one `i`-order pass would.
fn chunked_sharing() -> SimConfig {
    SimConfig {
        num_edps: 48,
        num_requesters: 192,
        num_contents: 5,
        epochs: 2,
        slots_per_epoch: 30,
        content_sizes: vec![1.0, 0.6, 0.8, 1.0, 0.5],
        params: Params {
            time_steps: 12,
            grid_h: 8,
            grid_q: 28,
            num_edps: 48,
            ..Params::default()
        },
        mobility: Some(RandomWaypoint::default()),
        audit: true,
        audit_sample: 1,
        seed: 11,
        ..SimConfig::default()
    }
}

fn digests(cfg: &SimConfig, threads: usize) -> Vec<(String, Digest)> {
    schemes(&cfg.params)
        .into_iter()
        .map(|policy| {
            let cfg = SimConfig {
                worker_threads: threads,
                ..cfg.clone()
            };
            let report = Simulation::new(cfg, policy).expect("valid config").run();
            if let Some(audit) = &report.audit {
                assert!(audit.violations.is_empty(), "{:?}", audit.violations);
            }
            (report.scheme.clone(), digest(&report))
        })
        .collect()
}

fn assert_pinned(cfg: &SimConfig, pinned: &[(&str, Digest)]) {
    for threads in [1, 3] {
        let got = digests(cfg, threads);
        let want: Vec<(String, Digest)> = pinned.iter().map(|&(s, d)| (s.to_string(), d)).collect();
        assert_eq!(got, want, "{threads} worker thread(s)");
    }
}

#[test]
fn small_config_reports_are_pinned() {
    assert_pinned(
        &SimConfig::small(),
        &[
            (
                "RR",
                (4636011614857552313, (43, 0, 195), 3930429197510099321),
            ),
            (
                "MPC",
                (4634878743110365103, (135, 0, 103), 4507262810993586185),
            ),
            (
                "UDCS",
                (4636371339282999176, (21, 0, 217), 16456551786258287867),
            ),
            (
                "MFG",
                (4636748674641096409, (0, 0, 238), 17988807101595081123),
            ),
            (
                "MFG-CP",
                (4636748632206894680, (0, 0, 238), 7668786668322768888),
            ),
        ],
    );
}

#[test]
fn mobility_audit_reports_are_pinned() {
    assert_pinned(
        &mobility_audit(),
        &[
            (
                "RR",
                (4643595732026618625, (762, 0, 889), 1913532776600567392),
            ),
            (
                "MPC",
                (4642572635514473434, (1236, 0, 415), 11429418664813245912),
            ),
            (
                "UDCS",
                (4643849017585673549, (392, 0, 1259), 16423604577212462212),
            ),
            (
                "MFG",
                (4643872462789372528, (164, 0, 1487), 420064600110246840),
            ),
            (
                "MFG-CP",
                (4643932451809102308, (164, 564, 923), 1536515851657467033),
            ),
        ],
    );
}

#[test]
fn chunked_sharing_reports_are_pinned() {
    assert_pinned(
        &chunked_sharing(),
        &[
            (
                "RR",
                (4642270352988713224, (1524, 0, 1306), 17771455707835756584),
            ),
            (
                "MPC",
                (4641220325343393631, (1751, 0, 1079), 8240036681566702660),
            ),
            (
                "UDCS",
                (4642690724198835085, (627, 0, 2203), 14383241442746919285),
            ),
            (
                "MFG",
                (4642662095412119276, (422, 0, 2408), 12781563903135404744),
            ),
            (
                "MFG-CP",
                (4642942004858395323, (422, 1175, 1233), 17677451913858895781),
            ),
        ],
    );
}
