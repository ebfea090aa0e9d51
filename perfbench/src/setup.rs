//! Set-up: training the shared model and generating each workload's
//! inputs from the seed, all outside the timed window.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use sentinel_core::{
    BankConfig, FingerprintDataset, IdentifierConfig, IoTSecurityService, ServiceConfig,
};
use sentinel_devicesim::{catalog, DeviceModel, SetupTrace, Testbed};
use sentinel_fingerprint::setup::SetupDetector;
use sentinel_fleet::workload::build_home_workload;
use sentinel_fleet::FleetConfig;
use sentinel_ml::pinned::PinnedRng;
use sentinel_ml::ForestConfig;
use sentinel_netproto::{MacAddr, Packet, Timestamp};
use sentinel_stream::StreamConfig;

/// Training campaign of the model every workload shares. The model is
/// part of the system under test, not of the workload, so its seed is
/// fixed; `--seed` varies only the traffic.
const MODEL_SEED: u64 = 42;
const TRAIN_RUNS: u64 = 10;
const TREES: usize = 25;

/// Devices in `stream-steady`.
const STEADY_DEVICES: usize = 4000;
/// Mean inter-arrival of `stream-steady` joins (exponential).
const STEADY_MEAN_ARRIVAL_MS: f64 = 100.0;
/// Keep-alive traffic starts this long after a device's last setup
/// packet, plus up to `KEEPALIVE_JITTER_MS`: always past the detector's
/// 10 s idle gap, so the first keep-alive closes the setup session.
const KEEPALIVE_DELAY_MS: u64 = 10_500;
const KEEPALIVE_JITTER_MS: u64 = 2_000;
/// Standby cycles of keep-alive traffic per device.
const KEEPALIVE_CYCLES: u32 = 2;

/// Storm setups in `stream-overload`, `stream_soak`'s shape scaled up,
/// starting once the background devices are onboarded.
const OVERLOAD_DEVICES: usize = 4000;
const OVERLOAD_STAGGER_US: u64 = 1500;
const OVERLOAD_STORM_AT: Duration = Duration::from_secs(70);
/// Devices onboarded before the storm whose keep-alives cross it.
const OVERLOAD_BACKGROUND: usize = 256;
const OVERLOAD_BACKGROUND_STAGGER_MS: u64 = 100;
const OVERLOAD_BACKGROUND_CYCLES: u32 = 3;

/// Session slots of both stream workloads (64 shards of 8).
const STREAM_CAPACITY: usize = 512;

/// Homes in `fleet-storm`.
const FLEET_HOMES: usize = 2000;

/// Trains the shared IoT security service on the single-threaded path.
pub fn train_service() -> IoTSecurityService {
    let devices = catalog();
    let dataset = FingerprintDataset::collect(&devices, TRAIN_RUNS, MODEL_SEED);
    let config = ServiceConfig {
        identifier: IdentifierConfig {
            bank: BankConfig {
                forest: ForestConfig::default().with_trees(TREES),
                threads: 1,
                ..BankConfig::default()
            },
            threads: 1,
            ..IdentifierConfig::default()
        },
    };
    IoTSecurityService::train(&dataset, &config)
}

/// What the generator expects one device to achieve at one gateway.
#[derive(Debug, Clone)]
pub struct Expect {
    pub mac: MacAddr,
    /// Setup packets the detector should see: the leading packets of
    /// the device's own traffic before its first idle gap (or cap).
    pub setup_packets: usize,
    /// Index (in the gateway's frame stream) of the frame that closes
    /// the setup session, if one exists; otherwise the end-of-stream
    /// flush closes it.
    pub close_frame: Option<u32>,
}

/// Per-device expectations of one gateway's frame stream.
pub fn expectations(frames: &[(Timestamp, Vec<u8>)], detector: &SetupDetector) -> Vec<Expect> {
    let mut by_mac: HashMap<MacAddr, Vec<u32>> = HashMap::new();
    let mut order = Vec::new();
    for (index, (_, frame)) in frames.iter().enumerate() {
        let mac = MacAddr::new(frame[6..12].try_into().expect("frames carry a MAC"));
        by_mac
            .entry(mac)
            .or_insert_with(|| {
                order.push(mac);
                Vec::new()
            })
            .push(index as u32);
    }
    order
        .into_iter()
        .map(|mac| {
            let indices = &by_mac[&mac];
            let stamps: Vec<Timestamp> = indices.iter().map(|&i| frames[i as usize].0).collect();
            let setup_packets = detector.setup_len(&stamps);
            Expect {
                mac,
                setup_packets,
                close_frame: indices.get(setup_packets).copied(),
            }
        })
        .collect()
}

/// One stream workload: the frames of one gateway, the decoded
/// post-onboarding packets its data plane forwards, and the
/// expectations the correctness checks hold the reports to.
pub struct StreamInput {
    pub frames: Vec<(Timestamp, Vec<u8>)>,
    /// `(frame index, decoded packet)` of every keep-alive frame, in
    /// frame order: traffic of onboarded devices, which takes the
    /// enforcement data plane.
    pub data_plane: Vec<(u32, Packet)>,
    pub expect: Vec<Expect>,
    pub config: StreamConfig,
}

/// The fleet workload: the fleet config plus every home's frames,
/// synthesized once by [`build_home_workload`].
pub struct FleetInput {
    pub config: FleetConfig,
    pub homes: Vec<HomeInput>,
    pub expect: Vec<Vec<Expect>>,
}

pub struct HomeInput {
    pub frames: Vec<(Timestamp, Vec<u8>)>,
    /// Devices that leave one tick after onboarding, sorted by MAC.
    pub leavers: Vec<MacAddr>,
    pub roam_out: Option<MacAddr>,
    pub roam_in: Option<MacAddr>,
}

/// Draws a setup run of a random catalog device whose MAC no earlier
/// device of the workload used.
fn unique_trace(
    testbed: &Testbed,
    devices: &[DeviceModel],
    profile: usize,
    run: &mut u64,
    used: &mut HashSet<MacAddr>,
) -> SetupTrace {
    loop {
        let trace = testbed.setup_run(&devices[profile].profile, *run);
        *run += 1;
        if used.insert(trace.mac) {
            return trace;
        }
    }
}

/// One device joining a stream workload.
struct Join {
    /// When its setup starts.
    start: Duration,
    /// Standby cycles of keep-alive traffic after the setup (`0`: none).
    keepalive_cycles: u32,
}

/// Builds one gateway's frame stream from its joins: each join is a
/// setup run of a random catalog device with a MAC unique in the
/// workload, optionally followed, after more than the idle gap, by
/// keep-alive cycles from the same MAC.
fn build_stream(testbed: &Testbed, rng: &mut PinnedRng, joins: &[Join]) -> StreamInput {
    let devices = catalog();
    let mut used = HashSet::new();
    let mut run = 0u64;
    // (timestamp, device, packet index, keep-alive, packet)
    let mut packets: Vec<(Timestamp, u32, u32, bool, Packet)> = Vec::new();
    for (device, join) in joins.iter().enumerate() {
        let profile = rng.index(devices.len());
        let setup = unique_trace(testbed, &devices, profile, &mut run, &mut used);
        let last = setup
            .packets
            .last()
            .expect("setup traces are non-empty")
            .timestamp;
        let keepalive_at = last.saturating_since(Timestamp::ZERO)
            + Duration::from_millis(KEEPALIVE_DELAY_MS + rng.next_below(KEEPALIVE_JITTER_MS));
        let mac = setup.mac;
        for (i, packet) in setup.packets.into_iter().enumerate() {
            let at = packet.timestamp + join.start;
            packets.push((at, device as u32, i as u32, false, packet));
        }
        if join.keepalive_cycles > 0 {
            let standby =
                testbed.standby_run(&devices[profile].profile, run, join.keepalive_cycles);
            for (i, mut packet) in standby.packets.into_iter().enumerate() {
                packet.src = mac;
                packet.timestamp = packet.timestamp + join.start + keepalive_at;
                let at = packet.timestamp;
                packets.push((at, device as u32, (1 << 16) | i as u32, true, packet));
            }
        }
    }
    packets.sort_unstable_by_key(|p| (p.0, p.1, p.2));
    let mut frames = Vec::with_capacity(packets.len());
    let mut data_plane = Vec::new();
    for (index, (timestamp, _, _, keepalive, packet)) in packets.into_iter().enumerate() {
        frames.push((timestamp, packet.encode()));
        if keepalive {
            data_plane.push((index as u32, packet));
        }
    }
    let config = StreamConfig {
        max_sessions: STREAM_CAPACITY,
        threads: 1,
        ..StreamConfig::default()
    };
    let expect = expectations(&frames, &config.detector);
    StreamInput {
        frames,
        data_plane,
        expect,
        config,
    }
}

/// `stream-steady`: devices join on a seeded Poisson schedule, each
/// setup followed by keep-alive cycles.
pub fn stream_steady(seed: u64) -> StreamInput {
    let testbed = Testbed::new(seed ^ 0x5354_4541_4459); // "STEADY"
    let mut rng = PinnedRng::from_key(seed, 1, 0);
    let mut arrival_us = 0f64;
    let joins: Vec<Join> = (0..STEADY_DEVICES)
        .map(|_| {
            // Exponential inter-arrival from a uniform draw in (0, 1].
            let u = (rng.next_below(1 << 30) + 1) as f64 / (1u64 << 30) as f64;
            arrival_us += -u.ln() * STEADY_MEAN_ARRIVAL_MS * 1e3;
            Join {
                start: Duration::from_micros(arrival_us as u64),
                keepalive_cycles: KEEPALIVE_CYCLES,
            }
        })
        .collect();
    build_stream(&testbed, &mut rng, &joins)
}

/// `stream-overload`: a small onboarded background keeps sending
/// keep-alives (the data plane) while a storm of setups 1500 µs apart
/// — far more concurrent setups than session slots — goes through the
/// table.
pub fn stream_overload(seed: u64) -> StreamInput {
    let testbed = Testbed::new(seed ^ 0x4f56_4552_4c44); // "OVERLD"
    let mut rng = PinnedRng::from_key(seed, 2, 0);
    let background = (0..OVERLOAD_BACKGROUND).map(|i| Join {
        start: Duration::from_millis(i as u64 * OVERLOAD_BACKGROUND_STAGGER_MS),
        keepalive_cycles: OVERLOAD_BACKGROUND_CYCLES,
    });
    let storm = (0..OVERLOAD_DEVICES).map(|i| Join {
        start: OVERLOAD_STORM_AT + Duration::from_micros(i as u64 * OVERLOAD_STAGGER_US),
        keepalive_cycles: 0,
    });
    let joins: Vec<Join> = background.chain(storm).collect();
    build_stream(&testbed, &mut rng, &joins)
}

/// `fleet-storm`: `FleetConfig::default()` storms, leaves and roams
/// over `FLEET_HOMES` homes, each home's frames synthesized once.
/// Returns the time spent in [`build_home_workload`] with the input.
pub fn fleet_storm(seed: u64) -> (FleetInput, Duration) {
    let config = FleetConfig {
        homes: FLEET_HOMES,
        seed,
        threads: 1,
        ..FleetConfig::default()
    };
    let devices = catalog();
    let detector = config.stream_config().detector;
    let mut homes = Vec::with_capacity(config.homes);
    let mut synthesis = Duration::ZERO;
    for home in 0..config.homes {
        let start = Instant::now();
        let workload = build_home_workload(&config, &devices, home);
        synthesis += start.elapsed();
        homes.push(HomeInput {
            frames: workload.frames().to_vec(),
            leavers: workload.leavers.clone(),
            roam_out: workload.roam_out,
            roam_in: workload.roam_in,
        });
    }
    let expect = homes
        .iter()
        .map(|home| expectations(&home.frames, &detector))
        .collect();
    let input = FleetInput {
        config,
        homes,
        expect,
    };
    (input, synthesis)
}
