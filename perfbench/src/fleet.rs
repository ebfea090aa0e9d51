//! The `fleet-storm` pass: the lockstep three-pass fleet tick through
//! public calls only, over homes whose frames were synthesized in
//! set-up.
//!
//! 1. Ingest: one pooled [`StreamRuntime`] (reset per home) drives each
//!    home's tick loop through `ingest_frames_deferred` and
//!    `flush_deferred`.
//! 2. Assess: every deferred completion of the group, in
//!    `FleetConfig::assess_batch_rows` chunks, through
//!    `assess_keyed_batch_into`.
//! 3. Settle: per home, the serial enforcement tail — leaves on tick
//!    boundaries, `apply_onboarding` in `(seq, mac)` order, one own-MAC
//!    and one stranger probe per report — on a fresh
//!    [`EnforcementModule`].
//!
//! The result must equal `run_fleet`'s `FleetReport` home by home.

use std::net::IpAddr;
use std::time::{Duration, Instant};

use sentinel_core::{AssessScratch, IoTSecurityService, SecurityService, ServiceResponse};
use sentinel_fleet::{FleetConfig, HomeOutcome};
use sentinel_netproto::{MacAddr, Timestamp};
use sentinel_sdn::topology::Topology;
use sentinel_sdn::{Destination, EnforcementModule};
use sentinel_stream::{apply_onboarding, Completion, StreamRuntime, StreamStats};

use crate::alloc;
use crate::setup::{FleetInput, HomeInput};
use crate::trace::Tracer;

/// One home's ingest-pass output.
struct Ingested {
    stats: StreamStats,
    completions: Vec<Completion>,
    /// Completions per tick group, then the final flush group.
    groups: Vec<u32>,
}

/// One timed pass over the fleet.
pub struct Pass {
    pub homes: Vec<HomeOutcome>,
    pub elapsed: Duration,
    /// Per report: wall time from when its home was due until the group
    /// that settled it ended (open-loop passes only).
    pub latency_us: Vec<f64>,
    /// Per group: how late the oldest due home was taken.
    pub lateness_us: Vec<f64>,
    /// Completions in their assessment chunks (traced passes only).
    pub batches: Vec<Vec<Completion>>,
    /// Allocation calls and frames of the ingest calls of the second
    /// half of the homes (warm pooled gateway).
    pub steady_allocs: (u64, u64),
}

/// The probe destination every home gateway uses.
fn remote_probe_ip() -> IpAddr {
    IpAddr::V4(
        Topology::lab()
            .host("Sremote")
            .expect("lab topology has a remote server")
            .ip,
    )
}

fn ingest_home(
    runtime: &mut StreamRuntime<&IoTSecurityService>,
    config: &FleetConfig,
    home: &HomeInput,
    tracer: &mut Tracer,
) -> Ingested {
    tracer.span("stream.reset", || runtime.reset());
    let frames = &home.frames;
    let mut completions = Vec::new();
    let mut groups = Vec::new();
    let mut cursor = 0usize;
    let mut tick_end = config.tick;
    while cursor < frames.len() {
        let limit = Timestamp::ZERO + tick_end;
        let mut end = cursor;
        while end < frames.len() && frames[end].0 < limit {
            end += 1;
        }
        let appended = tracer.span("stream.ingest", || {
            runtime.ingest_frames_deferred(&frames[cursor..end], &mut completions)
        });
        groups.push(appended as u32);
        cursor = end;
        tick_end += config.tick;
    }
    let appended = tracer.span("stream.flush", || runtime.flush_deferred(&mut completions));
    groups.push(appended as u32);
    Ingested {
        stats: runtime.stats().clone(),
        completions,
        groups,
    }
}

/// Withdraws the rules of the devices that left.
fn remove_leavers(
    tracer: &mut Tracer,
    pending: &mut Vec<MacAddr>,
    module: &mut EnforcementModule,
    removed: &mut u64,
) {
    tracer.span_calls("sdn.remove", pending.len(), || {
        for mac in pending.drain(..) {
            if module.remove_rule(mac).is_some() {
                *removed += 1;
            }
        }
    })
}

/// Pass 3 for one home: the serial enforcement tail in the fleet's op
/// order.
fn settle_home(
    index: usize,
    home: &HomeInput,
    ingested: &Ingested,
    responses: &[ServiceResponse],
    remote_ip: IpAddr,
    tracer: &mut Tracer,
) -> HomeOutcome {
    // A MAC no simulated device uses: a guaranteed rule-cache miss.
    let stranger = MacAddr::new([0x02, 0xff, 0xff, 0xff, 0xff, 0xfe]);
    let mut module = EnforcementModule::new();
    let mut outcome = HomeOutcome {
        home: index,
        stats: ingested.stats.clone(),
        reports: Vec::with_capacity(ingested.completions.len()),
        roam_out: home.roam_out,
        roam_in: home.roam_in,
        rules_installed: 0,
        rules_removed: 0,
        rules_resident: 0,
        cache_hits: 0,
        cache_lookups: 0,
        probes_allowed: 0,
        probes_denied: 0,
    };
    let mut pending: Vec<MacAddr> = Vec::new();
    let flush_group = ingested.groups.len() - 1;
    let mut offset = 0usize;
    for (group, &count) in ingested.groups.iter().enumerate() {
        if group != flush_group {
            remove_leavers(
                tracer,
                &mut pending,
                &mut module,
                &mut outcome.rules_removed,
            );
        }
        let end = offset + count as usize;
        let first = outcome.reports.len();
        tracer.span_calls("sdn.install", end - offset, || {
            for (completion, response) in ingested.completions[offset..end]
                .iter()
                .zip(&responses[offset..end])
            {
                let report = apply_onboarding(
                    &mut outcome.stats,
                    &mut module,
                    completion,
                    response.clone(),
                );
                outcome.reports.push(report);
            }
        });
        offset = end;
        tracer.span_calls("sdn.decide", 2 * (outcome.reports.len() - first), || {
            for report in &outcome.reports[first..] {
                outcome.rules_installed += 1;
                for src in [report.mac, stranger] {
                    if module
                        .decide(src, Destination::Internet(remote_ip))
                        .is_allow()
                    {
                        outcome.probes_allowed += 1;
                    } else {
                        outcome.probes_denied += 1;
                    }
                }
                if home.leavers.binary_search(&report.mac).is_ok() {
                    pending.push(report.mac);
                }
            }
        });
    }
    remove_leavers(
        tracer,
        &mut pending,
        &mut module,
        &mut outcome.rules_removed,
    );
    let cache = module.cache();
    outcome.rules_resident = cache.len() as u64;
    outcome.cache_hits = cache.hits();
    outcome.cache_lookups = cache.lookups();
    outcome
}

/// Runs the three passes over `homes` and appends their outcomes.
/// With `kept`, the assessed completions are moved there, in assessment
/// order, for the per-layer replays.
#[allow(clippy::too_many_arguments)]
fn run_group(
    service: &IoTSecurityService,
    input: &FleetInput,
    runtime: &mut StreamRuntime<&IoTSecurityService>,
    scratch: &mut AssessScratch,
    homes: std::ops::Range<usize>,
    tracer: &mut Tracer,
    out: &mut Vec<HomeOutcome>,
    kept: Option<&mut Vec<Completion>>,
    steady_allocs: &mut (u64, u64),
) {
    let config = &input.config;
    let half = config.homes / 2;
    tracer.open("tick.ingest");
    let mut ingested = Vec::with_capacity(homes.len());
    for home in homes.clone() {
        let calls = alloc::calls();
        ingested.push(ingest_home(runtime, config, &input.homes[home], tracer));
        if home >= half {
            steady_allocs.0 += alloc::calls() - calls;
            steady_allocs.1 += input.homes[home].frames.len() as u64;
        }
    }
    tracer.close();

    tracer.open("tick.assess");
    let items: Vec<_> = ingested
        .iter()
        .flat_map(|h| {
            h.completions
                .iter()
                .map(|c| (&c.full, &c.fixed, c.assess_key()))
        })
        .collect();
    let mut responses = Vec::with_capacity(items.len());
    for chunk in items.chunks(config.assess_batch_rows.max(1)) {
        tracer.span("core.assess", || {
            service.assess_keyed_batch_into(chunk, scratch, &mut responses)
        });
    }
    drop(items);
    tracer.close();

    tracer.open("tick.settle");
    let remote_ip = remote_probe_ip();
    let mut offset = 0usize;
    for (home, ingested) in homes.clone().zip(&ingested) {
        let end = offset + ingested.completions.len();
        out.push(settle_home(
            home,
            &input.homes[home],
            ingested,
            &responses[offset..end],
            remote_ip,
            tracer,
        ));
        offset = end;
    }
    tracer.close();

    if let Some(kept) = kept {
        kept.extend(ingested.into_iter().flat_map(|h| h.completions));
    }
}

/// One pass over the whole fleet. `rate` is the offered home rate of an
/// open-loop replay (`None`: every home at once, one group, the
/// `run_fleet` shape).
pub fn replay(
    service: &IoTSecurityService,
    input: &FleetInput,
    rate: Option<f64>,
    tracer: &mut Tracer,
) -> Pass {
    let config = &input.config;
    let mut runtime = StreamRuntime::with_config(service, config.stream_config());
    let mut scratch = AssessScratch::default();
    let mut homes = Vec::with_capacity(config.homes);
    let mut kept = Vec::new();
    let mut steady_allocs = (0, 0);
    let mut lateness_us = Vec::new();
    // `(homes settled so far, group end)` per group.
    let mut settled: Vec<(usize, Instant)> = Vec::new();
    let keep = tracer.enabled().then_some(&mut kept);
    let start = Instant::now();
    let due = |home: usize| match rate {
        Some(rate) => start + Duration::from_secs_f64(home as f64 / rate),
        None => start,
    };
    tracer.open("pass");
    match rate {
        None => {
            run_group(
                service,
                input,
                &mut runtime,
                &mut scratch,
                0..config.homes,
                tracer,
                &mut homes,
                keep,
                &mut steady_allocs,
            );
        }
        Some(rate) => {
            // Groups of due homes, capped so an assessment chunk still
            // gathers a few hundred rows when the generator falls behind.
            let cap = (config.assess_batch_rows / config.devices_per_home.max(1)).max(1);
            let mut next = 0usize;
            while next < config.homes {
                let now = Instant::now();
                let due_homes = (now.duration_since(start).as_secs_f64() * rate) as usize + 1;
                if due_homes <= next {
                    std::hint::spin_loop();
                    continue;
                }
                lateness_us.push(now.duration_since(due(next)).as_secs_f64() * 1e6);
                let end = due_homes.min(next + cap).min(config.homes);
                run_group(
                    service,
                    input,
                    &mut runtime,
                    &mut scratch,
                    next..end,
                    tracer,
                    &mut homes,
                    None,
                    &mut steady_allocs,
                );
                settled.push((homes.len(), Instant::now()));
                next = end;
            }
        }
    }
    tracer.close();
    let elapsed = start.elapsed();
    // The assessment chunks of the pass, rebuilt outside the timed span.
    let rows = config.assess_batch_rows.max(1);
    let mut batches: Vec<Vec<Completion>> = Vec::new();
    for (i, completion) in kept.into_iter().enumerate() {
        if i % rows == 0 {
            batches.push(Vec::with_capacity(rows));
        }
        batches.last_mut().expect("pushed above").push(completion);
    }
    let mut latency_us = Vec::new();
    let mut group = 0usize;
    for (index, home) in homes.iter().enumerate() {
        if rate.is_none() {
            break;
        }
        while settled[group].0 <= index {
            group += 1;
        }
        let waited = settled[group].1.saturating_duration_since(due(index));
        latency_us.extend(std::iter::repeat_n(
            waited.as_secs_f64() * 1e6,
            home.reports.len(),
        ));
    }
    Pass {
        homes,
        elapsed,
        latency_us,
        lateness_us,
        batches,
        steady_allocs,
    }
}

/// Bytes of one home's outcomes, for the byte-identity gates.
pub fn bytes(homes: &[HomeOutcome]) -> Vec<u8> {
    serde_json::to_vec(homes).expect("home outcomes serialize")
}

/// Heap bytes one resident session holds: opens the sessions of the
/// first homes' devices on a fresh home gateway each and divides the
/// heap growth by the sessions resident.
pub fn bytes_per_session(service: &IoTSecurityService, input: &FleetInput) -> f64 {
    let mut grown = 0usize;
    let mut resident = 0usize;
    for (home, expect) in input.homes.iter().zip(&input.expect).take(16) {
        let mut runtime = StreamRuntime::with_config(service, input.config.stream_config());
        let firsts: Vec<_> = expect
            .iter()
            .map(|e| {
                home.frames
                    .iter()
                    .find(|(_, f)| f[6..12] == e.mac.octets())
                    .expect("device has frames")
                    .clone()
            })
            .collect();
        let mut sink = Vec::new();
        let before = alloc::live();
        runtime.ingest_frames_deferred(&firsts, &mut sink);
        grown += alloc::live().saturating_sub(before);
        assert!(sink.is_empty(), "one frame cannot complete a setup");
        resident += runtime.resident_sessions();
    }
    grown as f64 / resident.max(1) as f64
}
