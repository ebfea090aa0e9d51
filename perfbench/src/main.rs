//! Gateway benchmark: end-to-end and per-layer metrics of the IoT
//! Sentinel gateway on three seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream-steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every run trains the shared model and generates the workload from
//! `--seed` (set-up, timed as `setup_s`), then runs the correctness
//! gates, then measures for `--seconds`. With `--trace 0` it reports
//! the end-to-end metrics, measured untraced; with `--trace 1` it runs
//! the traced decomposition and the layer replays and reports the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod alloc;
mod fleet;
mod layers;
mod pin;
mod setup;
mod stream;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use sentinel_core::IoTSecurityService;
use sentinel_fleet::{run_fleet, FleetConfig};
use sentinel_netproto::RawFeatures;
use sentinel_stream::Completion;

use crate::trace::Tracer;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Verdicts per latency window: the p99 of a window has ten samples
/// beyond it.
const LATENCY_WINDOW: usize = 1000;
/// Open-loop passes of a traced run, for the tail-latency diagnostics.
const TRACE_OPEN_LOOP_PASSES: usize = 3;
/// Largest share of the traced pass its layer spans may leave
/// unattributed: the rest is the benchmark's own bookkeeping between layer
/// calls (slicing ticks, assembling outcomes, freeing a pass's buffers).
const LAYER_TOLERANCE: f64 = 0.10;

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values`.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum WorkloadName {
    StreamSteady,
    StreamOverload,
    FleetStorm,
}

struct Args {
    workload: WorkloadName,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "stream-steady" => WorkloadName::StreamSteady,
                        "stream-overload" => WorkloadName::StreamOverload,
                        "fleet-storm" => WorkloadName::FleetStorm,
                        other => return Err(format!("unknown workload {other:?}")),
                    })
                }
                "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value:?}")),
                    }
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// One reported metric with every sample it was measured from.
struct Metric {
    name: &'static str,
    unit: &'static str,
    samples: Vec<f64>,
}

/// The run's result: correctness, operation counts and metrics.
#[derive(Default)]
struct Report {
    failures: Vec<String>,
    attempted: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("perfbench: check failed: {what}");
            self.failures.push(what);
        }
    }

    fn metric(&mut self, name: &'static str, unit: &'static str, samples: Vec<f64>) {
        let finite = !samples.is_empty() && samples.iter().all(|v| v.is_finite());
        self.check(finite, || format!("metric {name} has no finite samples"));
        self.metrics.push(Metric {
            name,
            unit,
            samples,
        });
    }

    fn print(&self) {
        for m in &self.metrics {
            println!(
                "{:<34} {:>14.4} {:<6} p25 {:>12.4}  p75 {:>12.4}  n={}",
                m.name,
                median(&m.samples),
                m.unit,
                quantile(&m.samples, 0.25),
                quantile(&m.samples, 0.75),
                m.samples.len()
            );
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    median(&m.samples),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        );
    }
}

/// One product-path pass, reduced to what the gates and metrics need.
struct PassSummary {
    bytes: Vec<u8>,
    /// `bytes` without the fields that depend on how the stream was cut
    /// into ingest calls.
    batch_invariant: Vec<u8>,
    frames: u64,
    reports: u64,
    elapsed: Duration,
    latency_us: Vec<f64>,
    lateness_us: Vec<f64>,
}

/// One decomposed pass.
struct TracedSummary {
    bytes: Vec<u8>,
    elapsed: Duration,
    batches: Vec<Vec<Completion>>,
    steady_allocs: (u64, u64),
}

/// Deterministic stream-layer and SDN counters of the reference pass.
struct Counters {
    packets_in: u64,
    /// Frames that fell back to the decoder, and malformed frames.
    decoded: u64,
    malformed: u64,
    ignored: u64,
    opened: u64,
    evicted: u64,
    completed_idle_gap: u64,
    peak_resident: u64,
    rule_hits: u64,
    rule_lookups: u64,
    packet_in_ratio: f64,
    /// Devices attempted, and those whose report covers every setup
    /// packet the generator sent.
    devices: u64,
    onboarded_ok: u64,
}

/// What the generic run needs from a workload.
trait Workload {
    /// Offered rate of the open-loop replay, in the workload's arrival
    /// unit (frames or homes per second).
    fn rate(&self) -> f64;
    fn frames(&self) -> u64;
    fn service_mut(&mut self) -> &mut IoTSecurityService;
    /// The product path at `threads: 1` from a cold verdict cache; the
    /// first call's outcome is kept as the reference.
    fn pass(&mut self, rate: Option<f64>) -> PassSummary;
    /// The other correctness passes (thread count, verdict cache, and
    /// oracle), each of whose bytes must equal the reference's;
    /// returns them labelled.
    fn gate_passes(&mut self) -> Vec<(&'static str, PassSummary)>;
    /// Throughput at 2 threads over 1 thread, same pass (from the gate
    /// passes).
    fn scaling(&self) -> f64;
    fn counters(&self) -> Counters;
    fn traced(&mut self, tracer: &mut Tracer) -> TracedSummary;
    fn scan_set(&self) -> Vec<&[u8]>;
    fn setup_records(&self) -> Vec<Vec<RawFeatures>>;
    fn session_capacity(&self) -> usize;
    fn bytes_per_session(&self) -> f64;
}

/// Verdict-latency percentiles of open-loop passes, one sample per
/// window of consecutive verdicts, so one host stall spoils one window
/// rather than the run.
#[derive(Default)]
struct Latency {
    p50: Vec<f64>,
    p90: Vec<f64>,
    p99: Vec<f64>,
    /// Per pass: p99 of how late the generator issued due arrivals.
    lateness: Vec<f64>,
}

impl Latency {
    fn add(&mut self, pass: &PassSummary) {
        let samples = &pass.latency_us;
        let windows = (samples.len() / LATENCY_WINDOW).max(1);
        for k in 0..windows {
            let window = &samples[samples.len() * k / windows..samples.len() * (k + 1) / windows];
            self.p50.push(quantile(window, 0.5));
            self.p90.push(quantile(window, 0.9));
            self.p99.push(quantile(window, 0.99));
        }
        self.lateness.push(quantile(&pass.lateness_us, 0.99));
    }
}

/// Checks one measured pass against the reference and counts its
/// frames as attempted.
fn check_pass(report: &mut Report, pass: &PassSummary, reference: &PassSummary, rate: Option<f64>) {
    // The session table's peak is sampled at ingest-call boundaries, so
    // open-loop passes compare everything else.
    let same = match rate {
        None => pass.bytes == reference.bytes,
        Some(_) => pass.batch_invariant == reference.batch_invariant,
    };
    report.check(same, || {
        format!("a measured pass (rate {rate:?}) differs from the reference")
    });
    report.attempted += pass.frames;
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sets up a workload `SETUPS` times (training plus input generation)
/// and keeps the last; returns it with the set-up and synthesis times.
fn set_up<W>(generate: impl Fn(IoTSecurityService) -> (W, Duration)) -> (W, Vec<f64>, Vec<f64>) {
    let mut setup_s = Vec::new();
    let mut synthesis_ms = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let start = Instant::now();
        let service = setup::train_service();
        let (workload, synthesis) = generate(service);
        setup_s.push(start.elapsed().as_secs_f64());
        synthesis_ms.push(ms(synthesis));
        kept = Some(workload);
    }
    (kept.expect("SETUPS > 0"), setup_s, synthesis_ms)
}

fn run<W: Workload>(args: &Args, mut w: W, setup_s: Vec<f64>, synthesis_ms: Vec<f64>) -> Report {
    let mut report = Report::default();

    // Correctness gates, before any number.
    let reference = w.pass(None);
    for (label, gate) in w.gate_passes() {
        report.check(gate.bytes == reference.bytes, || {
            format!("{label}: reports/stats differ from the threads-1 cached pass")
        });
    }
    let counters = w.counters();
    report.check(counters.decoded == 0 && counters.malformed == 0, || {
        format!(
            "{} decode fallbacks and {} malformed frames, expected none",
            counters.decoded, counters.malformed
        )
    });
    report.check(counters.onboarded_ok <= counters.devices, || {
        "more onboardings than devices".into()
    });
    let deadline = Instant::now() + Duration::from_secs(args.seconds);

    if !args.trace {
        let (mut pps, mut onboard) = (Vec::new(), Vec::new());
        let mut latency = Latency::default();
        loop {
            for rate in [None, Some(w.rate())] {
                let pass = w.pass(rate);
                check_pass(&mut report, &pass, &reference, rate);
                match rate {
                    None => {
                        pps.push(pass.frames as f64 / pass.elapsed.as_secs_f64());
                        onboard.push(pass.reports as f64 / pass.elapsed.as_secs_f64());
                    }
                    Some(_) => latency.add(&pass),
                }
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        println!(
            "open loop at {} /s, median over {} windows: verdict p90 {:.1} us, p99 {:.1} us; \
             generator lateness p99 {:.1} us",
            w.rate(),
            latency.p50.len(),
            median(&latency.p90),
            median(&latency.p99),
            median(&latency.lateness)
        );
        report.metric("setup_s", "s", setup_s);
        report.metric("pps", "1/s", pps);
        report.metric("onboard_per_s", "1/s", onboard);
        report.metric("verdict_p50_us", "us", latency.p50);
        report.metric(
            "onboard_ok_ratio",
            "ratio",
            vec![counters.onboarded_ok as f64 / counters.devices.max(1) as f64],
        );
        report.metric("heap_peak_mb", "MB", vec![alloc::peak() as f64 / 1048576.0]);
        return report;
    }

    // Traced run: alternate untraced and traced runs of the
    // decomposed pass.
    let scaling = w.scaling();
    let mut tracer = Tracer::new(true);
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let (mut ingest, mut assess, mut settle) = (Vec::new(), Vec::new(), Vec::new());
    let (mut install, mut decide, mut unattributed) = (Vec::new(), Vec::new(), Vec::new());
    let mut allocs = Vec::new();
    let mut batches;
    loop {
        let plain = w.traced(&mut Tracer::new(false));
        report.check(plain.bytes == reference.bytes, || {
            "untraced decomposed pass differs from the reference".into()
        });
        untraced_ms.push(ms(plain.elapsed));
        tracer.clear();
        let traced = w.traced(&mut tracer);
        report.check(traced.bytes == reference.bytes, || {
            "traced decomposed pass differs from the reference".into()
        });
        report.attempted += 2 * w.frames();
        traced_ms.push(ms(traced.elapsed));
        let total = |names: &[&str]| -> (f64, u64) {
            names.iter().fold((0.0, 0), |(ns, n), name| {
                let (t, c) = tracer.total(name);
                (ns + t as f64, n + c)
            })
        };
        let (ingest_ns, _) = total(&["stream.ingest", "stream.flush", "stream.reset"]);
        let (assess_ns, _) = total(&["core.assess"]);
        let (settle_ns, _) = total(&["sdn.install", "sdn.decide", "sdn.remove"]);
        let (install_ns, installs) = total(&["sdn.install"]);
        let (decide_ns, decides) = total(&["sdn.decide"]);
        let (pass_ns, _) = total(&["pass"]);
        ingest.push(ingest_ns / 1e6);
        assess.push(assess_ns / 1e6);
        settle.push(settle_ns / 1e6);
        install.push(install_ns / installs.max(1) as f64);
        decide.push(decide_ns / decides.max(1) as f64);
        let layers = ingest_ns + assess_ns + settle_ns;
        unattributed.push((pass_ns - layers) / pass_ns);
        allocs.push(traced.steady_allocs.0 as f64 / traced.steady_allocs.1.max(1) as f64);
        batches = traced.batches;
        if Instant::now() >= deadline {
            break;
        }
    }
    let unattributed_median = median(&unattributed);
    report.check(unattributed_median.abs() <= LAYER_TOLERANCE, || {
        format!(
            "layer spans leave {:.1}% of the traced pass unattributed (tolerance {:.0}%)",
            unattributed_median * 100.0,
            LAYER_TOLERANCE * 100.0
        )
    });
    write_trace(args, &tracer);

    let mut latency = Latency::default();
    for _ in 0..TRACE_OPEN_LOOP_PASSES {
        let pass = w.pass(Some(w.rate()));
        check_pass(&mut report, &pass, &reference, Some(w.rate()));
        latency.add(&pass);
    }

    let scan_set = w.scan_set();
    let (scan_ns, certified) = layers::scan(&scan_set);
    drop(scan_set);
    let records = w.setup_records();
    let extract_ns = layers::extract(&records, w.session_capacity());
    let packets: usize = records.iter().map(Vec::len).sum();
    drop(records);
    let scanned = counters.packets_in - counters.ignored;
    let ingest_ms = median(&ingest);
    let self_ms = ingest_ms - (scan_ns * scanned as f64 + extract_ns * packets as f64) / 1e6;
    let core = layers::core(w.service_mut(), &batches);
    let bytes_per_session = w.bytes_per_session();

    report.metric("netproto.scan_ns_per_frame", "ns", vec![scan_ns]);
    report.metric("netproto.certified_ratio", "ratio", vec![certified]);
    report.metric("fingerprint.extract_ns_per_packet", "ns", vec![extract_ns]);
    report.metric("stream.ingest_ms", "ms", ingest);
    report.metric("stream.self_ms", "ms", vec![self_ms]);
    report.metric(
        "stream.sessions_opened",
        "count",
        vec![counters.opened as f64],
    );
    report.metric(
        "stream.shed_ratio",
        "ratio",
        vec![counters.evicted as f64 / counters.opened.max(1) as f64],
    );
    report.metric(
        "stream.completed_idle_gap",
        "count",
        vec![counters.completed_idle_gap as f64],
    );
    report.metric(
        "stream.peak_resident",
        "count",
        vec![counters.peak_resident as f64],
    );
    report.metric(
        "stream.ignored_ratio",
        "ratio",
        vec![counters.ignored as f64 / counters.packets_in.max(1) as f64],
    );
    report.metric("core.stage1_ms", "ms", vec![core.stage1_ms]);
    report.metric("core.stage2_ms", "ms", vec![core.stage2_ms]);
    report.metric("core.rows_per_batch", "count", vec![core.rows_per_batch]);
    report.metric(
        "core.candidates_per_row",
        "count",
        vec![core.candidates_per_row],
    );
    report.metric(
        "core.verdict_cache_hit_ratio",
        "ratio",
        vec![core.cache_hit_ratio],
    );
    report.metric(
        "core.discrimination_rate",
        "ratio",
        vec![core.discrimination_rate],
    );
    report.metric("core.assess_ms", "ms", assess);
    report.metric("sdn.install_ns", "ns", install);
    report.metric("sdn.decide_ns", "ns", decide);
    report.metric("sdn.settle_ms", "ms", settle);
    report.metric(
        "sdn.rule_cache_hit_ratio",
        "ratio",
        vec![counters.rule_hits as f64 / counters.rule_lookups.max(1) as f64],
    );
    report.metric(
        "sdn.packet_in_ratio",
        "ratio",
        vec![counters.packet_in_ratio],
    );
    report.metric("gen.synthesis_ms", "ms", synthesis_ms);
    report.metric("alloc.per_frame_steady", "count", allocs);
    report.metric(
        "mem.bytes_per_resident_session",
        "B",
        vec![bytes_per_session],
    );
    report.metric("trace.unattributed_ratio", "ratio", unattributed);
    report.metric(
        "trace.overhead_ratio",
        "ratio",
        vec![median(&traced_ms) / median(&untraced_ms) - 1.0],
    );
    report.metric("scaling.t2_over_t1", "ratio", vec![scaling]);
    report.metric("replay.verdict_p90_us", "us", latency.p90);
    report.metric("replay.verdict_p99_us", "us", latency.p99);
    report.metric("replay.lateness_p99_us", "us", latency.lateness);
    report
}

/// Writes the last traced pass's spans to `.bench_traces/`.
fn write_trace(args: &Args, tracer: &Tracer) {
    let name = match args.workload {
        WorkloadName::StreamSteady => "stream-steady",
        WorkloadName::StreamOverload => "stream-overload",
        WorkloadName::FleetStorm => "fleet-storm",
    };
    let dir = std::path::Path::new(".bench_traces");
    let path = dir.join(format!("{name}-seed{}.json", args.seed));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json()));
    match written {
        Ok(()) => println!("spans of the last traced pass: {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// A stream workload: one gateway over one frame stream.
struct StreamBench {
    service: IoTSecurityService,
    input: setup::StreamInput,
    rate: f64,
    /// The reference pass: its outcome and elapsed time.
    reference: Option<(stream::Outcome, Duration)>,
    /// Elapsed time of the threads-2 gate pass.
    two_threads: Duration,
}

impl StreamBench {
    fn replay(&mut self, threads: usize, cached: bool, rate: Option<f64>) -> PassSummary {
        self.service.enable_verdict_cache(cached);
        let pass = stream::replay(&self.service, &self.input, threads, rate);
        let summary = PassSummary {
            bytes: pass.outcome.bytes(),
            batch_invariant: pass.outcome.batch_invariant_bytes(),
            frames: self.input.frames.len() as u64,
            reports: pass.outcome.reports.len() as u64,
            elapsed: pass.elapsed,
            latency_us: pass.latency_us,
            lateness_us: pass.lateness_us,
        };
        if self.reference.is_none() {
            self.reference = Some((pass.outcome, pass.elapsed));
        }
        summary
    }
}

// Offered rates of the open-loop replays: about a tenth to a fifth of
// what the gateway sustains here on the stream workloads, so a slower
// host adds little queueing on top of its slower service.

/// Offered frame rate of the `stream-steady` open-loop replay.
const STEADY_RATE: f64 = 50_000.0;
/// Offered frame rate of the `stream-overload` open-loop replay.
const OVERLOAD_RATE: f64 = 50_000.0;
/// Offered home rate of the `fleet-storm` open-loop replay: one home
/// every 250 us keeps the gateway busy about two fifths of the time.
/// A home is ~100 us of work in one burst; at a fifth of this rate
/// the idle millisecond before each home let its service time swing
/// with the host by far more than throughput did.
const FLEET_RATE: f64 = 4_000.0;

impl Workload for StreamBench {
    fn rate(&self) -> f64 {
        self.rate
    }

    fn frames(&self) -> u64 {
        self.input.frames.len() as u64
    }

    fn service_mut(&mut self) -> &mut IoTSecurityService {
        &mut self.service
    }

    fn pass(&mut self, rate: Option<f64>) -> PassSummary {
        self.replay(1, true, rate)
    }

    fn gate_passes(&mut self) -> Vec<(&'static str, PassSummary)> {
        pin::release();
        let two = self.replay(2, true, None);
        pin::pin();
        self.two_threads = two.elapsed;
        let uncached = self.replay(1, false, None);
        vec![("threads 2", two), ("verdict cache off", uncached)]
    }

    fn scaling(&self) -> f64 {
        let (_, one) = self.reference.as_ref().expect("reference pass ran");
        one.as_secs_f64() / self.two_threads.as_secs_f64()
    }

    fn counters(&self) -> Counters {
        let (outcome, _) = self.reference.as_ref().expect("reference pass ran");
        let stats = &outcome.stats;
        let got: std::collections::HashMap<_, _> = outcome
            .reports
            .iter()
            .map(|r| (r.mac, r.setup_packets))
            .collect();
        let onboarded_ok = self
            .input
            .expect
            .iter()
            .filter(|e| got.get(&e.mac) == Some(&e.setup_packets))
            .count() as u64;
        let switch_processed = outcome.data_plane.0 + outcome.data_plane.1;
        Counters {
            packets_in: stats.packets_in,
            decoded: stats.frames_decoded,
            malformed: stats.frames_malformed,
            ignored: stats.packets_ignored,
            opened: stats.sessions_opened,
            evicted: stats.sessions_evicted,
            completed_idle_gap: stats.completed_idle_gap,
            peak_resident: stats.peak_resident_sessions as u64,
            rule_hits: outcome.rule_cache.0,
            rule_lookups: outcome.rule_cache.1,
            packet_in_ratio: outcome.data_plane.2 as f64 / switch_processed.max(1) as f64,
            devices: self.input.expect.len() as u64,
            onboarded_ok,
        }
    }

    fn traced(&mut self, tracer: &mut Tracer) -> TracedSummary {
        self.service.enable_verdict_cache(true);
        let traced = stream::traced(&self.service, &self.input, tracer);
        TracedSummary {
            bytes: traced.outcome.bytes(),
            elapsed: traced.elapsed,
            batches: traced.batches,
            steady_allocs: traced.steady_allocs,
        }
    }

    fn scan_set(&self) -> Vec<&[u8]> {
        layers::scanned_frames(&self.input.frames, &self.input.expect)
    }

    fn setup_records(&self) -> Vec<Vec<RawFeatures>> {
        layers::setup_records(&self.input.frames, &self.input.expect)
    }

    fn session_capacity(&self) -> usize {
        self.input.config.detector.max_packets.min(1024)
    }

    fn bytes_per_session(&self) -> f64 {
        stream::bytes_per_session(&self.service, &self.input)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match pin::pin() {
        Some(cpu) => println!("measuring thread pinned to CPU {cpu}"),
        None => println!("measuring thread not pinned"),
    }
    let report = match args.workload {
        WorkloadName::StreamSteady | WorkloadName::StreamOverload => {
            let (generate, rate): (fn(u64) -> setup::StreamInput, f64) = match args.workload {
                WorkloadName::StreamSteady => (setup::stream_steady, STEADY_RATE),
                _ => (setup::stream_overload, OVERLOAD_RATE),
            };
            let (bench, setup_s, synthesis_ms) = set_up(|service| {
                let start = Instant::now();
                let input = generate(args.seed);
                let synthesis = start.elapsed();
                let bench = StreamBench {
                    service,
                    input,
                    rate,
                    reference: None,
                    two_threads: Duration::ZERO,
                };
                (bench, synthesis)
            });
            run(&args, bench, setup_s, synthesis_ms)
        }
        WorkloadName::FleetStorm => {
            let (bench, setup_s, synthesis_ms) = set_up(|service| {
                let (input, synthesis) = setup::fleet_storm(args.seed);
                let bench = FleetBench {
                    service,
                    input,
                    timings: (Duration::ZERO, Duration::ZERO),
                    reference: None,
                };
                (bench, synthesis)
            });
            run(&args, bench, setup_s, synthesis_ms)
        }
    };
    report.print();
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `fleet-storm`: the three-pass fleet tick over pre-synthesized homes.
struct FleetBench {
    service: IoTSecurityService,
    input: setup::FleetInput,
    /// Elapsed time of `run_fleet` at 1 and 2 threads, cache on.
    timings: (Duration, Duration),
    reference: Option<Vec<sentinel_fleet::HomeOutcome>>,
}

impl FleetBench {
    fn fleet_config(&self, threads: usize) -> FleetConfig {
        FleetConfig {
            threads,
            ..self.input.config.clone()
        }
    }

    fn oracle(&mut self, threads: usize, cached: bool) -> PassSummary {
        self.service.enable_verdict_cache(cached);
        let config = self.fleet_config(threads);
        let start = Instant::now();
        let report = run_fleet(&self.service, &config);
        let elapsed = start.elapsed();
        let bytes = fleet::bytes(&report.homes);
        PassSummary {
            batch_invariant: bytes.clone(),
            bytes,
            frames: report.stats.packets_in,
            reports: report.stats.onboarded,
            elapsed,
            latency_us: Vec::new(),
            lateness_us: Vec::new(),
        }
    }
}

impl Workload for FleetBench {
    fn rate(&self) -> f64 {
        FLEET_RATE
    }

    fn frames(&self) -> u64 {
        self.input.homes.iter().map(|h| h.frames.len() as u64).sum()
    }

    fn service_mut(&mut self) -> &mut IoTSecurityService {
        &mut self.service
    }

    fn pass(&mut self, rate: Option<f64>) -> PassSummary {
        self.service.enable_verdict_cache(true);
        let pass = fleet::replay(&self.service, &self.input, rate, &mut Tracer::new(false));
        let reports = pass.homes.iter().map(|h| h.reports.len() as u64).sum();
        if self.reference.is_none() {
            self.reference = Some(pass.homes.clone());
        }
        let bytes = fleet::bytes(&pass.homes);
        PassSummary {
            batch_invariant: bytes.clone(),
            bytes,
            frames: self.frames(),
            reports,
            elapsed: pass.elapsed,
            latency_us: pass.latency_us,
            lateness_us: pass.lateness_us,
        }
    }

    fn gate_passes(&mut self) -> Vec<(&'static str, PassSummary)> {
        let uncached = self.oracle(1, false);
        let one = self.oracle(1, true);
        pin::release();
        let two = self.oracle(2, true);
        pin::pin();
        self.timings = (one.elapsed, two.elapsed);
        self.service.enable_verdict_cache(true);
        vec![
            ("run_fleet threads 1 cache off", uncached),
            ("run_fleet threads 1", one),
            ("run_fleet threads 2", two),
        ]
    }

    fn scaling(&self) -> f64 {
        self.timings.0.as_secs_f64() / self.timings.1.as_secs_f64()
    }

    fn counters(&self) -> Counters {
        let homes = self.reference.as_ref().expect("reference pass ran");
        let mut c = Counters {
            packets_in: 0,
            decoded: 0,
            malformed: 0,
            ignored: 0,
            opened: 0,
            evicted: 0,
            completed_idle_gap: 0,
            peak_resident: 0,
            rule_hits: 0,
            rule_lookups: 0,
            packet_in_ratio: 1.0,
            devices: 0,
            onboarded_ok: 0,
        };
        for (home, expect) in homes.iter().zip(&self.input.expect) {
            let s = &home.stats;
            c.packets_in += s.packets_in;
            c.decoded += s.frames_decoded;
            c.malformed += s.frames_malformed;
            c.ignored += s.packets_ignored;
            c.opened += s.sessions_opened;
            c.evicted += s.sessions_evicted;
            c.completed_idle_gap += s.completed_idle_gap;
            c.peak_resident = c.peak_resident.max(s.peak_resident_sessions as u64);
            c.rule_hits += home.cache_hits;
            c.rule_lookups += home.cache_lookups;
            c.devices += expect.len() as u64;
            c.onboarded_ok += expect
                .iter()
                .filter(|e| {
                    home.reports
                        .iter()
                        .any(|r| r.mac == e.mac && r.setup_packets == e.setup_packets)
                })
                .count() as u64;
        }
        c
    }

    fn traced(&mut self, tracer: &mut Tracer) -> TracedSummary {
        self.service.enable_verdict_cache(true);
        let pass = fleet::replay(&self.service, &self.input, None, tracer);
        TracedSummary {
            bytes: fleet::bytes(&pass.homes),
            elapsed: pass.elapsed,
            batches: pass.batches,
            steady_allocs: pass.steady_allocs,
        }
    }

    fn scan_set(&self) -> Vec<&[u8]> {
        self.input
            .homes
            .iter()
            .zip(&self.input.expect)
            .flat_map(|(home, expect)| layers::scanned_frames(&home.frames, expect))
            .collect()
    }

    fn setup_records(&self) -> Vec<Vec<RawFeatures>> {
        self.input
            .homes
            .iter()
            .zip(&self.input.expect)
            .flat_map(|(home, expect)| layers::setup_records(&home.frames, expect))
            .collect()
    }

    fn session_capacity(&self) -> usize {
        self.input
            .config
            .stream_config()
            .detector
            .max_packets
            .min(1024)
    }

    fn bytes_per_session(&self) -> f64 {
        fleet::bytes_per_session(&self.service, &self.input)
    }
}
