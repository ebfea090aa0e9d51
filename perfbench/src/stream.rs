//! The passes of the two stream workloads: one gateway
//! ([`StreamRuntime`]) ingesting one interleaved frame stream.
//!
//! * [`replay`] is the product path the end-to-end metrics time:
//!   `StreamRuntime::ingest_frames` (scan, extract, session table,
//!   in-shard assessment, rule install) per batch, then
//!   `StreamRuntime::enforce` for the batch's post-onboarding frames,
//!   then the end-of-stream flush. It runs at the maximum rate or
//!   open-loop at a fixed offered frame rate.
//! * [`traced`] performs the same work through the public decomposed
//!   calls — `ingest_frames_deferred`, `assess_keyed_batch_into` per
//!   shard and tick (the inline path's batch shapes), `apply_onboarding`
//!   and `enforce` — so each layer can be timed from outside.

use std::time::{Duration, Instant};

use sentinel_core::{AssessScratch, IoTSecurityService, OnboardingReport, SecurityService};
use sentinel_netproto::MacAddr;
use sentinel_stream::{apply_onboarding, Completion, StreamConfig, StreamRuntime, StreamStats};

use crate::alloc;
use crate::setup::{Expect, StreamInput};
use crate::trace::Tracer;

/// The deterministic output of one pass: every gate compares these.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub reports: Vec<OnboardingReport>,
    pub stats: StreamStats,
    /// Data-plane decisions: `(forwarded, dropped, packet-ins)`.
    pub data_plane: (u64, u64, u64),
    /// Rule-cache `(hits, lookups)` of the gateway's enforcement module.
    pub rule_cache: (u64, u64),
}

impl Outcome {
    /// The bytes the byte-identity gates compare.
    pub fn bytes(&self) -> Vec<u8> {
        let mut bytes = serde_json::to_vec(&self.reports).expect("reports serialize");
        bytes.extend(serde_json::to_vec(&self.stats).expect("stats serialize"));
        bytes.extend(format!("{:?}{:?}", self.data_plane, self.rule_cache).bytes());
        bytes
    }

    /// [`Outcome::bytes`] without `peak_resident_sessions`, which the
    /// runtime samples at the end of each ingest call: it depends on
    /// how the stream is cut into calls, every other field does not.
    pub fn batch_invariant_bytes(&self) -> Vec<u8> {
        let mut outcome = self.clone();
        outcome.stats.peak_resident_sessions = 0;
        outcome.bytes()
    }
}

/// One timed pass.
pub struct Pass {
    pub outcome: Outcome,
    pub elapsed: Duration,
    /// Per report: wall time from when its closing frame was due until
    /// the call that returned it ended (open-loop passes only).
    pub latency_us: Vec<f64>,
    /// Per ingest call: how late the generator issued the oldest due
    /// frame (open-loop passes only).
    pub lateness_us: Vec<f64>,
}

fn runtime<'a>(
    service: &'a IoTSecurityService,
    config: &StreamConfig,
    threads: usize,
) -> StreamRuntime<&'a IoTSecurityService> {
    StreamRuntime::with_config(
        service,
        StreamConfig {
            threads,
            ..config.clone()
        },
    )
}

fn finish(
    runtime: &StreamRuntime<&IoTSecurityService>,
    reports: Vec<OnboardingReport>,
    forwarded: u64,
    dropped: u64,
) -> Outcome {
    let cache = runtime.enforcement().cache();
    Outcome {
        reports,
        stats: runtime.stats().clone(),
        data_plane: (forwarded, dropped, runtime.switch().packet_ins()),
        rule_cache: (cache.hits(), cache.lookups()),
    }
}

/// Runs the product path over the whole stream. `rate` is the offered
/// frame rate of an open-loop replay (`None`: maximum rate, batches of
/// `batch_size`).
pub fn replay(
    service: &IoTSecurityService,
    input: &StreamInput,
    threads: usize,
    rate: Option<f64>,
) -> Pass {
    let mut runtime = runtime(service, &input.config, threads);
    let frames = &input.frames;
    let batch = input.config.batch_size.max(1);
    let mut reports = Vec::with_capacity(input.expect.len());
    // `(reports returned so far, call end)` per ingest call.
    let mut returned: Vec<(usize, Instant)> = Vec::with_capacity(frames.len() / 8 + 2);
    let mut lateness_us = Vec::new();
    let (mut forwarded, mut dropped) = (0u64, 0u64);
    let mut plane = 0usize;
    let mut next = 0usize;
    let start = Instant::now();
    let due = |frame: usize| match rate {
        Some(rate) => start + Duration::from_secs_f64(frame as f64 / rate),
        None => start,
    };
    while next < frames.len() {
        let end = match rate {
            None => (next + batch).min(frames.len()),
            Some(rate) => {
                let now = Instant::now();
                let due_frames = (now.duration_since(start).as_secs_f64() * rate) as usize + 1;
                if due_frames <= next {
                    std::hint::spin_loop();
                    continue;
                }
                lateness_us.push(now.duration_since(due(next)).as_secs_f64() * 1e6);
                due_frames.min(next + batch).min(frames.len())
            }
        };
        reports.extend(runtime.ingest_frames(&frames[next..end]));
        while plane < input.data_plane.len() && (input.data_plane[plane].0 as usize) < end {
            if runtime.enforce(&input.data_plane[plane].1).action
                == sentinel_sdn::FlowAction::Forward
            {
                forwarded += 1;
            } else {
                dropped += 1;
            }
            plane += 1;
        }
        returned.push((reports.len(), Instant::now()));
        next = end;
    }
    let flushed_from = reports.len();
    reports.extend(runtime.flush());
    let done = Instant::now();
    returned.push((reports.len(), done));
    let elapsed = done - start;

    let mut latency_us = Vec::new();
    if rate.is_some() {
        let expect: std::collections::HashMap<MacAddr, &Expect> =
            input.expect.iter().map(|e| (e.mac, e)).collect();
        let mut call = 0usize;
        for (index, report) in reports.iter().enumerate() {
            while returned[call].0 <= index {
                call += 1;
            }
            // A shed device's re-opened session closes somewhere else:
            // its onboarding failed, and it has no verdict latency.
            let expect = expect[&report.mac];
            if report.setup_packets != expect.setup_packets {
                continue;
            }
            // Flushed sessions close at the end of the stream.
            let closed_by = match expect.close_frame {
                Some(frame) if index < flushed_from => frame as usize,
                _ => frames.len() - 1,
            };
            let waited = returned[call].1.saturating_duration_since(due(closed_by));
            latency_us.push(waited.as_secs_f64() * 1e6);
        }
    }
    Pass {
        outcome: finish(&runtime, reports, forwarded, dropped),
        elapsed,
        latency_us,
        lateness_us,
    }
}

/// FNV-1a shard assignment of the stream runtime: fixed and
/// hasher-independent, so the decomposed pass can rebuild the inline
/// path's per-shard assessment batches.
fn shard_of(mac: MacAddr, shards: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in mac.octets() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// What the decomposed pass hands the per-layer replays.
pub struct Traced {
    pub outcome: Outcome,
    pub elapsed: Duration,
    /// Completions in their assessment batches, in call order.
    pub batches: Vec<Vec<Completion>>,
    /// Allocation calls and frames of the ingest calls in the second
    /// half of the stream (warm tables).
    pub steady_allocs: (u64, u64),
}

/// The decomposed gateway pass at `threads: 1`, with every layer call
/// wrapped in a span when `tracer` is enabled.
pub fn traced(service: &IoTSecurityService, input: &StreamInput, tracer: &mut Tracer) -> Traced {
    let mut runtime = runtime(service, &input.config, 1);
    let shards = input.config.shards.max(1);
    let frames = &input.frames;
    let batch = input.config.batch_size.max(1);
    let mut stats = StreamStats::default();
    let mut reports = Vec::with_capacity(input.expect.len());
    let mut batches: Vec<Vec<Completion>> = Vec::new();
    let mut scratch = AssessScratch::default();
    let mut tick: Vec<Completion> = Vec::new();
    let mut groups: Vec<Vec<Completion>> = (0..shards).map(|_| Vec::new()).collect();
    let mut responses = Vec::new();
    let (mut forwarded, mut dropped) = (0u64, 0u64);
    let mut steady_allocs = (0u64, 0u64);
    let mut plane = 0usize;
    let start = Instant::now();
    tracer.open("pass");
    let mut next = 0usize;
    loop {
        let flush = next >= frames.len();
        let end = (next + batch).min(frames.len());
        tick.clear();
        let calls = alloc::calls();
        if flush {
            tracer.span("stream.flush", || runtime.flush_deferred(&mut tick));
        } else {
            tracer.span("stream.ingest", || {
                runtime.ingest_frames_deferred(&frames[next..end], &mut tick)
            });
            if next >= frames.len() / 2 {
                steady_allocs.0 += alloc::calls() - calls;
                steady_allocs.1 += (end - next) as u64;
            }
        }
        // The inline path assesses each shard's completions of a tick
        // as one batch (flushes included), in shard order.
        for completion in tick.drain(..) {
            groups[shard_of(completion.mac, shards)].push(completion);
        }
        let mut assessed = Vec::new();
        for group in groups.iter_mut().filter(|g| !g.is_empty()) {
            let items: Vec<_> = group
                .iter()
                .map(|c| (&c.full, &c.fixed, c.assess_key()))
                .collect();
            responses.clear();
            tracer.span("core.assess", || {
                service.assess_keyed_batch_into(&items, &mut scratch, &mut responses)
            });
            drop(items);
            let b = batches.len();
            assessed.extend((0..group.len()).map(|i| (b, i)).zip(responses.drain(..)));
            batches.push(std::mem::take(group));
        }
        // Rules install in `(seq, mac)` order, as the inline tail does.
        assessed.sort_unstable_by_key(|((b, i), _)| {
            let c = &batches[*b][*i];
            (c.seq, c.mac)
        });
        tracer.span_calls("sdn.install", assessed.len(), || {
            for ((b, i), response) in assessed {
                let completion = &batches[b][i];
                let module = runtime.enforcement_mut();
                reports.push(apply_onboarding(&mut stats, module, completion, response));
            }
        });
        if flush {
            break;
        }
        let from = plane;
        while plane < input.data_plane.len() && (input.data_plane[plane].0 as usize) < end {
            plane += 1;
        }
        tracer.span_calls("sdn.decide", plane - from, || {
            for (_, packet) in &input.data_plane[from..plane] {
                if runtime.enforce(packet).action == sentinel_sdn::FlowAction::Forward {
                    forwarded += 1;
                } else {
                    dropped += 1;
                }
            }
        });
        next = end;
    }
    tracer.close();
    let elapsed = start.elapsed();
    // Ingest-side counters come from the runtime, onboarding counters
    // from the replayed tail.
    let ingest = runtime.stats();
    stats.packets_in = ingest.packets_in;
    stats.packets_ignored = ingest.packets_ignored;
    stats.frames_malformed = ingest.frames_malformed;
    stats.frames_decoded = ingest.frames_decoded;
    stats.sessions_opened = ingest.sessions_opened;
    stats.sessions_evicted = ingest.sessions_evicted;
    stats.peak_resident_sessions = ingest.peak_resident_sessions;
    let cache = runtime.enforcement().cache();
    let outcome = Outcome {
        reports,
        stats,
        data_plane: (forwarded, dropped, runtime.switch().packet_ins()),
        rule_cache: (cache.hits(), cache.lookups()),
    };
    Traced {
        outcome,
        elapsed,
        batches,
        steady_allocs,
    }
}

/// Heap bytes one resident session holds: opens one session per device
/// (first frame of each of the first devices) on a fresh gateway and
/// divides the heap growth by the sessions resident.
pub fn bytes_per_session(service: &IoTSecurityService, input: &StreamInput) -> f64 {
    let mut runtime = runtime(service, &input.config, 1);
    let firsts: Vec<_> = input
        .expect
        .iter()
        .take(64)
        .map(|e| {
            input
                .frames
                .iter()
                .find(|(_, f)| f[6..12] == e.mac.octets())
                .expect("device has frames")
                .clone()
        })
        .collect();
    let before = alloc::live();
    let reports = runtime.ingest_frames(&firsts);
    let grown = alloc::live().saturating_sub(before);
    assert!(reports.is_empty(), "one frame cannot complete a setup");
    grown as f64 / runtime.resident_sessions().max(1) as f64
}
