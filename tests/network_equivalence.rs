//! The N=1 equivalence contract of the shared-channel network simulator,
//! plus the emergent multi-link behaviors it must exhibit.
//!
//! The contract (DESIGN.md §10): a one-link churn-free [`Scenario`] run
//! through [`NetworkSimulation`] is *bit-for-bit identical* to the same
//! configuration run through the direct [`LinkSimulation`] path — same
//! RNG streams, same event order, same floats. The golden fixture test
//! pins that contract to the committed `tests/golden/*.jsonl` snapshots;
//! the proptest extends it to arbitrary valid configurations.

use proptest::prelude::*;

use wsn_linkconf::experiments::campaign::{Campaign, ConfigResult, Scale};
use wsn_linkconf::prelude::*;

/// The golden fixture's per-config options, reproduced through the
/// network path: seed derivation must match the golden rule of
/// `Campaign::seed_for` (base factory at the campaign seed, config `i`
/// derives index `i`).
fn net_options_for(campaign: &Campaign, index: u64) -> NetOptions {
    NetOptions {
        packets: campaign.packets,
        seed: RngFactory::new(campaign.seed).derive(index).seed(),
        channel: campaign.channel,
        traffic: campaign.traffic,
        ..NetOptions::quick(campaign.packets)
    }
}

/// The same 36-config mini-grid `tests/golden_metrics.rs` pins.
fn golden_grid() -> ParamGrid {
    ParamGrid {
        distances_m: vec![10.0, 20.0, 35.0],
        power_levels: vec![3, 11, 31],
        max_tries: vec![1, 3],
        retry_delays_ms: vec![0],
        queue_caps: vec![30],
        packet_intervals_ms: vec![50],
        payloads: vec![50, 110],
    }
}

fn golden_fixture(name: &str) -> Vec<ConfigResult> {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.jsonl"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {} ({e})", path.display()))
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).expect("fixture line parses as ConfigResult"))
        .collect()
}

/// Every golden-fixture configuration, replayed as a one-link scenario
/// through the shared-channel network simulator, must reproduce the
/// committed metrics exactly — the N=1 contract against a snapshot that
/// predates the network module entirely.
#[test]
fn single_link_scenarios_reproduce_golden_fixtures() {
    let configs: Vec<StackConfig> = golden_grid().iter().collect();
    assert_eq!(configs.len(), 36);

    let empirical = Campaign {
        threads: 2,
        ..Campaign::new(Scale::Bench)
    };
    let mut dsss_channel = ChannelConfig::paper_hallway();
    dsss_channel.per_backend = PerBackend::Dsss(DsssPer);
    let dsss = Campaign {
        threads: 2,
        ..Campaign::new(Scale::Bench).with_channel(dsss_channel)
    };

    for (name, campaign) in [("empirical", empirical), ("dsss", dsss)] {
        let pinned = golden_fixture(name);
        assert_eq!(pinned.len(), configs.len(), "{name}: fixture length");
        for (i, (config, want)) in configs.iter().zip(&pinned).enumerate() {
            let outcome = NetworkSimulation::new(
                Scenario::single(*config),
                net_options_for(&campaign, i as u64),
            )
            .run();
            assert_eq!(outcome.links.len(), 1);
            assert_eq!(
                outcome.links[0].metrics, want.metrics,
                "{name}: config #{i} ({config:?}) diverged from golden fixture"
            );
        }
    }
}

/// A deterministic hidden-vs-exposed pair: the hidden geometry's loss
/// must strictly exceed the CCA-detectable (exposed) case, because
/// hidden senders never defer and collide inside the capture window.
#[test]
fn hidden_terminal_loss_exceeds_cca_detectable_loss() {
    let config = StackConfig::builder()
        .distance_m(35.0)
        .power_level(11)
        .payload_bytes(110)
        .max_tries(3)
        .retry_delay_ms(0)
        .queue_cap(30)
        .packet_interval_ms(50)
        .build()
        .expect("valid constants");
    let options = || NetOptions::quick(400).with_seed(0x5EED);

    let hidden = NetworkSimulation::new(Scenario::hidden_pair(config), options()).run();
    let exposed = NetworkSimulation::new(Scenario::exposed_pair(config), options()).run();

    // Hidden senders are below each other's carrier-sense floor: CCA
    // never fires, collisions happen on the air instead.
    assert_eq!(hidden.air.cca_busy_hits, 0, "hidden senders must not defer");
    assert!(
        exposed.air.cca_busy_hits > 0,
        "exposed senders must carrier-sense each other"
    );
    assert!(
        hidden.air.overlapped_frames > exposed.air.overlapped_frames,
        "hidden {} vs exposed {} overlapped frames",
        hidden.air.overlapped_frames,
        exposed.air.overlapped_frames
    );
    assert!(
        hidden.plr_radio() > exposed.plr_radio(),
        "hidden plr {} must strictly exceed exposed plr {}",
        hidden.plr_radio(),
        exposed.plr_radio()
    );
}

/// Satellite 2 regression: a degenerate linear trajectory that starts
/// and ends at the configured distance must be bit-for-bit identical to
/// the stationary default — motion plumbing must not perturb a single
/// draw when the geometry never changes.
#[test]
fn stationary_trajectory_matches_fixed_distance_bit_for_bit() {
    let config = StackConfig::builder()
        .distance_m(25.0)
        .power_level(11)
        .payload_bytes(80)
        .max_tries(3)
        .retry_delay_ms(0)
        .queue_cap(30)
        .packet_interval_ms(50)
        .build()
        .expect("valid constants");
    let options = || NetOptions::quick(200).with_seed(0xDEAD_BEEF);

    let still = NetworkSimulation::new(Scenario::single(config), options()).run();

    let mut scenario = Scenario::single(config);
    scenario.links[0].trajectory = Trajectory::Linear {
        start_m: 25.0,
        end_m: 25.0,
        duration_s: 10.0,
    };
    let degenerate = NetworkSimulation::new(scenario, options()).run();

    assert_eq!(still.links[0].metrics, degenerate.links[0].metrics);
    assert_eq!(still.end_time, degenerate.end_time);

    // And a trajectory that actually moves must diverge — the motion
    // plumbing is live, not vacuously equal.
    let mut moving = Scenario::single(config);
    moving.links[0].trajectory = Trajectory::Linear {
        start_m: 5.0,
        end_m: 45.0,
        duration_s: 10.0,
    };
    let walked = NetworkSimulation::new(moving, options()).run();
    assert_ne!(still.links[0].metrics, walked.links[0].metrics);
}

/// Churn: a link that leaves mid-run generates strictly fewer packets
/// than one that stays, and a link that joins late starts later.
#[test]
fn churn_bounds_generation_windows() {
    let config = StackConfig::builder()
        .distance_m(15.0)
        .power_level(31)
        .payload_bytes(50)
        .max_tries(3)
        .retry_delay_ms(0)
        .queue_cap(30)
        .packet_interval_ms(50)
        .build()
        .expect("valid constants");
    let options = || {
        NetOptions {
            horizon: Some(SimDuration::from_secs(30)),
            ..NetOptions::quick(100_000)
        }
        .with_seed(7)
    };

    let full = NetworkSimulation::new(Scenario::single(config), options()).run();

    let mut leaving = Scenario::single(config);
    leaving.links[0] = leaving.links[0].leaving_at(10.0);
    let left = NetworkSimulation::new(leaving, options()).run();

    assert!(
        left.links[0].metrics.generated < full.links[0].metrics.generated,
        "leaving at 10 s of 30 s must cut generation ({} vs {})",
        left.links[0].metrics.generated,
        full.links[0].metrics.generated
    );

    let mut joining = Scenario::single(config);
    joining.links[0] = joining.links[0].joining_at(15.0);
    let joined = NetworkSimulation::new(joining, options()).run();
    assert!(
        joined.links[0].metrics.generated < full.links[0].metrics.generated,
        "joining at 15 s of 30 s must cut generation ({} vs {})",
        joined.links[0].metrics.generated,
        full.links[0].metrics.generated
    );
}

// ---------------------------------------------------------------------------
// Static-catalog golden pins.
//
// These fixtures were generated on the dense N×N `SharedAir` (pre-timeline)
// and must keep replaying byte-identically through the sparse,
// timeline-driven medium: same metrics on every link, same air counters.
// Regenerate (only for an intentional contract change) with
// `WSN_UPDATE_GOLDEN=1 cargo test --test network_equivalence golden_pin`.
// ---------------------------------------------------------------------------

use serde::{Deserialize, Serialize};

/// One pinned catalog run: every link's full metric set plus the shared-air
/// counters, compared field-for-field (all floats bit-exact via PartialEq).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ScenarioPin {
    scenario: String,
    links: Vec<LinkMetrics>,
    air: AirStats,
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_or_update_pin(name: &str, pins: &[ScenarioPin]) {
    let path = golden_path(name);
    let rendered: String = pins
        .iter()
        .map(|p| serde_json::to_string(p).expect("pin serializes") + "\n")
        .collect();
    if std::env::var_os("WSN_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("write golden pin");
        return;
    }
    let want: Vec<ScenarioPin> = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {} ({e})", path.display()))
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).expect("pin line parses"))
        .collect();
    assert_eq!(want.len(), pins.len(), "{name}: pin count");
    for (got, want) in pins.iter().zip(&want) {
        assert_eq!(
            got, want,
            "{name}: scenario '{}' diverged from golden pin",
            want.scenario
        );
    }
}

/// Every static catalog scenario (N = 1 through N = 4, hidden/exposed/
/// interference geometries) pinned against the dense-medium snapshot.
#[test]
fn catalog_scenarios_replay_golden_pin() {
    let pins: Vec<ScenarioPin> = wsn_linkconf::net::all_scenarios()
        .iter()
        .map(|(id, _)| {
            let scenario = wsn_linkconf::net::build_scenario(id).expect("catalog id builds");
            let outcome =
                NetworkSimulation::new(scenario, NetOptions::quick(120).with_seed(0x5EED)).run();
            ScenarioPin {
                scenario: id.to_string(),
                links: outcome.links.iter().map(|l| l.metrics.clone()).collect(),
                air: outcome.air,
            }
        })
        .collect();
    check_or_update_pin("scenarios.jsonl", &pins);
}

/// Satellite regression: a `Leave` landing mid-transaction drains the link
/// cleanly. The leave instant is derived from a baseline run so it provably
/// falls inside one of link 1's MAC transactions; the test then asserts the
/// in-flight transaction completes after the leave, the packet accounting
/// identity holds on both links, and the whole outcome matches the pinned
/// fixture (so no deferral leak can creep into link 0's CCA counters).
#[test]
fn leave_mid_transaction_drains_cleanly_golden_pin() {
    let config = StackConfig::builder()
        .distance_m(35.0)
        .power_level(11)
        .payload_bytes(110)
        .max_tries(3)
        .retry_delay_ms(0)
        .queue_cap(30)
        .packet_interval_ms(10)
        .build()
        .expect("valid constants");
    let options = || {
        let mut o = NetOptions::quick(200).with_seed(0xD12A);
        o.record_packets = true;
        o
    };

    // Baseline: find a mid-run transaction of link 1 and aim the leave at
    // its midpoint. Both runs are deterministic, so the derived instant is
    // stable across machines.
    let baseline = NetworkSimulation::new(Scenario::exposed_pair(config), options()).run();
    let records = baseline.links[1].records.as_ref().expect("records kept");
    let span = records
        .iter()
        .filter(|r| r.fate != PacketFate::QueueDropped)
        .nth(20)
        .expect("baseline serves >20 packets");
    let (start, done) = (
        span.t_service_start.expect("served packet has start"),
        span.t_done.expect("served packet has end"),
    );
    let leave_s = (start.as_secs_f64() + done.as_secs_f64()) / 2.0;

    let mut scenario = Scenario::exposed_pair(config);
    scenario.links[1] = scenario.links[1].leaving_at(leave_s);
    let outcome = NetworkSimulation::new(scenario, options()).run();

    // The transaction in flight at the leave instant still completes …
    let last_done = outcome.links[1]
        .records
        .as_ref()
        .expect("records kept")
        .iter()
        .filter_map(|r| r.t_done)
        .map(|t| t.as_secs_f64())
        .fold(0.0f64, f64::max);
    assert!(
        last_done > leave_s,
        "in-flight transaction must drain past the leave ({last_done} vs {leave_s})"
    );
    // … no packets vanish from the accounting identity on either link …
    for link in &outcome.links {
        assert!(
            link.metrics.conserves_packets(),
            "accounting identity violated: {:?}",
            link.metrics
        );
    }
    // … and the departed link generated strictly less than its budget.
    assert!(outcome.links[1].metrics.generated < 200);
    assert_eq!(outcome.links[0].metrics.generated, 200);

    check_or_update_pin(
        "leave_drain.jsonl",
        &[ScenarioPin {
            scenario: format!("exposed-pair/leave@{leave_s:.6}"),
            links: outcome.links.iter().map(|l| l.metrics.clone()).collect(),
            air: outcome.air,
        }],
    );
}

fn arb_stack_config() -> impl Strategy<Value = StackConfig> {
    (
        (1u8..=31),
        (1u8..=8),
        prop::sample::select(vec![0u32, 30, 100]),
        (1u16..=30),
        prop::sample::select(vec![10u32, 30, 100, 500]),
        (1u16..=114),
        (5u32..=40),
    )
        .prop_map(|(power, tries, dretry, qmax, tpkt, payload, dist)| {
            StackConfig::builder()
                .distance_m(dist as f64)
                .power_level(power)
                .max_tries(tries)
                .retry_delay_ms(dretry)
                .queue_cap(qmax)
                .packet_interval_ms(tpkt)
                .payload_bytes(payload)
                .build()
                .expect("all components validated")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Satellite 3: any one-link scenario produces `LinkMetrics`
    /// identical to the direct link-sim path — every field, every bit.
    #[test]
    fn any_single_link_scenario_matches_direct_simulation(
        config in arb_stack_config(),
        seed in any::<u64>(),
    ) {
        let direct = LinkSimulation::new(config, SimOptions {
            packets: 40,
            seed,
            channel: ChannelConfig::paper_hallway(),
            traffic: TrafficModel::Periodic,
            record_packets: false,
            horizon: None,
            trajectory: Trajectory::Stationary,
        })
        .run();

        let net = NetworkSimulation::new(
            Scenario::single(config),
            NetOptions::quick(40).with_seed(seed),
        )
        .run();

        prop_assert_eq!(net.links.len(), 1);
        prop_assert_eq!(&net.links[0].metrics, direct.metrics());
    }
}
