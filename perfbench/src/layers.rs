//! Per-layer replays: each layer's public functions timed from outside
//! over the workload's own inputs, outside any end-to-end pass.

use std::time::Instant;

use sentinel_core::{ClassifyScratch, Identification, IoTSecurityService};
use sentinel_fingerprint::{FeatureExtractor, FixedFingerprint};
use sentinel_netproto::{RawFeatures, ScanOutcome, Timestamp, WireScan};
use sentinel_stream::Completion;

use crate::median;
use crate::setup::Expect;

/// Replays of each layer run this many times; the median is reported.
const REPEATS: usize = 5;

/// `WireScan::scan` over `frames`: median nanoseconds per frame and the
/// share of frames the scanner certified.
pub fn scan(frames: &[&[u8]]) -> (f64, f64) {
    let certified = frames
        .iter()
        .filter(|f| matches!(WireScan::scan(f), ScanOutcome::Features(_)))
        .count();
    let times: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            for frame in frames {
                std::hint::black_box(WireScan::scan(std::hint::black_box(frame)));
            }
            start.elapsed().as_nanos() as f64 / frames.len().max(1) as f64
        })
        .collect();
    (
        median(&times),
        certified as f64 / frames.len().max(1) as f64,
    )
}

/// The frames the gateway scans: every frame of a device up to the one
/// that closes its setup (later frames belong to an onboarded device
/// and are skipped before the scan).
pub fn scanned_frames<'a>(frames: &'a [(Timestamp, Vec<u8>)], expect: &[Expect]) -> Vec<&'a [u8]> {
    let close: std::collections::HashMap<[u8; 6], u32> = expect
        .iter()
        .map(|e| (e.mac.octets(), e.close_frame.unwrap_or(u32::MAX)))
        .collect();
    frames
        .iter()
        .enumerate()
        .filter(|(i, (_, f))| *i as u32 <= close[&f[6..12]])
        .map(|(_, (_, f))| f.as_slice())
        .collect()
}

/// Each device's setup packets as scanned records, for the extraction
/// replay.
pub fn setup_records(frames: &[(Timestamp, Vec<u8>)], expect: &[Expect]) -> Vec<Vec<RawFeatures>> {
    let index: std::collections::HashMap<[u8; 6], usize> = expect
        .iter()
        .enumerate()
        .map(|(i, e)| (e.mac.octets(), i))
        .collect();
    let mut sessions: Vec<Vec<RawFeatures>> = vec![Vec::new(); expect.len()];
    for (_, frame) in frames {
        let device = index[&frame[6..12]];
        if sessions[device].len() < expect[device].setup_packets {
            let raw = RawFeatures::from_frame(frame).expect("workload frames decode");
            sessions[device].push(raw);
        }
    }
    sessions
}

/// `FeatureExtractor::push_raw` and `finish` over every setup, with the
/// session's pre-sized arena: median nanoseconds per packet.
pub fn extract(sessions: &[Vec<RawFeatures>], capacity: usize) -> f64 {
    let packets: usize = sessions.iter().map(Vec::len).sum();
    let times: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            for session in sessions {
                let mut extractor = FeatureExtractor::with_capacity(capacity);
                for raw in session {
                    extractor.push_raw(raw);
                }
                std::hint::black_box(extractor.finish());
            }
            start.elapsed().as_nanos() as f64 / packets.max(1) as f64
        })
        .collect();
    median(&times)
}

/// Stage-1 and stage-2 replays over the workload's completions in their
/// real assessment batches, each starting from a cold verdict cache.
pub struct Core {
    pub stage1_ms: f64,
    pub stage2_ms: f64,
    pub rows_per_batch: f64,
    pub candidates_per_row: f64,
    pub cache_hit_ratio: f64,
    pub discrimination_rate: f64,
}

pub fn core(service: &mut IoTSecurityService, batches: &[Vec<Completion>]) -> Core {
    let rows: usize = batches.iter().map(Vec::len).sum();
    let fixed: Vec<Vec<&FixedFingerprint>> = batches
        .iter()
        .map(|b| b.iter().map(|c| &c.fixed).collect())
        .collect();
    let items: Vec<Vec<_>> = batches
        .iter()
        .map(|b| {
            b.iter()
                .map(|c| (&c.full, &c.fixed, c.assess_key()))
                .collect()
        })
        .collect();
    let mut scratch = ClassifyScratch::default();
    let mut stage1 = Vec::new();
    let mut both = Vec::new();
    let mut candidates = 0usize;
    let mut hit_ratio = 0.0;
    let mut discriminated = 0usize;
    let mut out: Vec<Identification> = Vec::with_capacity(rows);
    for _ in 0..REPEATS {
        service.enable_verdict_cache(true);
        let identifier = service.identifier();
        let start = Instant::now();
        candidates = 0;
        for batch in &fixed {
            let sets = identifier.classify_batch_in(batch, &mut scratch);
            candidates += sets.iter().map(Vec::len).sum::<usize>();
        }
        stage1.push(start.elapsed().as_secs_f64() * 1e3);
        let (hits, lookups) = identifier.verdict_cache_stats();
        hit_ratio = hits as f64 / lookups.max(1) as f64;

        service.enable_verdict_cache(true);
        let identifier = service.identifier();
        out.clear();
        let start = Instant::now();
        for batch in &items {
            identifier.identify_keyed_batch_into(batch, &mut scratch, &mut out);
        }
        both.push(start.elapsed().as_secs_f64() * 1e3);
        discriminated = out.iter().filter(|i| i.discriminated).count();
    }
    service.enable_verdict_cache(true);
    let stage1_ms = median(&stage1);
    Core {
        stage1_ms,
        stage2_ms: median(&both) - stage1_ms,
        rows_per_batch: rows as f64 / batches.len().max(1) as f64,
        candidates_per_row: candidates as f64 / rows.max(1) as f64,
        cache_hit_ratio: hit_ratio,
        discrimination_rate: discriminated as f64 / rows.max(1) as f64,
    }
}
