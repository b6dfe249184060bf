//! Optimizer-traffic benchmark for the estimation server.
//!
//! Launches the repository's `serve` binary as its own process, drives
//! it over TCP from this one process (at most two threads and two
//! connections), checks every answer, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer ledger (`--trace 1`). The last line of
//! standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! ```text
//! lc-perfbench --serve-bin target/release/serve \
//!     --serve-flags "--queries 5000 --epochs 20 --hidden 64" \
//!     --workload serial_unique --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads, each modelling a query optimizer as the server's user:
//!
//! * `serial_unique`: closed loop, one connection, one call in flight,
//!   distinct queries from a pool too large for the cache to ever hit —
//!   the fixed per-request cost path; the cache and the batcher do
//!   nothing here.
//! * `plan_bursts`: open loop over two connections; optimizer sessions
//!   arrive on a seeded Poisson schedule and pipeline one estimate per
//!   connected sub-plan, so the batcher coalesces and sub-plans recur in
//!   the cache. A ladder of offered rates finds the highest rate that
//!   meets the latency limit.
//! * `feedback_drift`: open loop at one fixed rate; every answer is
//!   followed by a feedback frame with the true cardinality, and the
//!   stream switches to 3-join queries part-way, so drift-triggered
//!   retraining runs beside the reads.

mod drive;
mod server;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use drive::{closed_loop, open_loop, traced_block, OpenPhase, OpenRun, Tally};
use server::{connect_first, connect_pair, shard_core, Counters, Host, Server};
use stats::{median_f64, quantile_of, Latency};
use trace::SpanLog;
use workload::{Bootstrap, Replica, Stream};

/// Run `f` and return its result with the milliseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Server launches per untraced run; `setup_s` is their median.
const SETUP_LAUNCHES: usize = 3;
/// Latency limit per optimizer call, on its 90th percentile. On a shared
/// virtual machine the host takes the vCPUs away for 1–3% of the time,
/// in stalls of up to ~10 ms; every call due in a stall waits it out, so
/// an open loop's p99 measures the host. Its p90 measures the server.
const LATENCY_LIMIT_US: f64 = 1_000.0;
/// `plan_bursts` nominal session rate (sessions/s), and the share of the
/// run it takes; the rate ladder gets the rest.
const NOMINAL_SESSIONS_PER_S: f64 = 5_000.0;
const NOMINAL_SHARE: f64 = 0.75;
/// `plan_bursts` rate ladder: rung `k` offers `LADDER_BASE × LADDER_STEP^k`
/// sessions/s; runs bisect rungs `LADDER_RANGE` with `LADDER_RUNGS` probes.
const LADDER_BASE: f64 = 1_000.0;
const LADDER_STEP: f64 = 1.1;
const LADDER_RANGE: (usize, usize) = (8, 39);
const LADDER_RUNGS: usize = 5;
/// A rung fails if the sender's median lateness grows by more than this
/// from its first to its last quarter.
const LATENESS_GROWTH_US: f64 = 200.0;
/// Most calls an open-loop phase keeps in flight.
const MAX_OUTSTANDING: usize = 128;
/// `feedback_drift` fixed estimate rate (estimates/s) and the share of
/// the run before the switch to 3-join queries. At 2000/s the shard slept
/// 500 µs between calls and the wake-up path set the tail: the p90 spread
/// 0.22 of its median (IQR over ten seeds); at 8000/s, a fifth of the
/// serial closed loop's rate, 0.07–0.12.
const DRIFT_RATE: f64 = 8_000.0;
const DRIFT_SHIFT_AT: f64 = 0.4;
/// `serial_unique` pool of distinct queries, sent in order and started
/// over at its end. A query comes back only after 2^18 others, far beyond
/// the server's cache, so the zero-hits check holds; labelling a pool
/// sized to the run instead (a million queries) took longer than the run.
const SERIAL_POOL: usize = 1 << 18;
/// Warm-up calls before any measured phase.
const WARM_CALLS: usize = 3_000;
/// Calls replayed in process by the traced run.
const REPLAY_CALLS: usize = 10_000;

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    serve_flags: Vec<String>,
    out_dir: PathBuf,
    commit: String,
    source: String,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let name = flag.strip_prefix("--").ok_or(format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or(format!("--{name} needs a value"))?;
            map.insert(name.to_string(), value);
        }
        let mut take = |name: &str| map.remove(name).ok_or(format!("missing --{name}"));
        let args = Args {
            workload: take("workload")?,
            seed: take("seed")?.parse().map_err(|_| "--seed must be an integer")?,
            seconds: take("seconds")?.parse().map_err(|_| "--seconds must be a number")?,
            trace: match take("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
            },
            serve_bin: take("serve-bin")?.into(),
            serve_flags: take("serve-flags")?.split_whitespace().map(str::to_string).collect(),
            out_dir: take("out")?.into(),
            commit: take("commit").unwrap_or_else(|_| "unknown".into()),
            source: take("source").unwrap_or_else(|_| "unknown".into()),
        };
        if let Some(extra) = map.keys().next() {
            return Err(format!("unknown flag --{extra}"));
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }

    /// The value of `serve` flag `name` in the served flags, or `default`.
    fn serve_flag(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.serve_flags.iter().position(|f| f == name) {
            None => Ok(default),
            Some(i) => self
                .serve_flags
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .ok_or(format!("bad value for {name} in --serve-flags")),
        }
    }

    /// The bootstrap configuration from the served flags (with `serve`'s
    /// own defaults for anything not given).
    fn bootstrap(&self) -> Result<Bootstrap, String> {
        Ok(Bootstrap {
            queries: self.serve_flag("--queries", 400)?,
            epochs: self.serve_flag("--epochs", 3)?,
            hidden: self.serve_flag("--hidden", 32)?,
        })
    }
}

/// Everything one run reports.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// (name, value, unit), in print order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the JSON line.
    notes: Vec<String>,
    failures: Vec<String>,
}

impl Report {
    fn new() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            failures: Vec::new(),
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Record a correctness check; a false `ok` fails the run.
    fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        self.notes.push(format!("check {:<4} {what}", if ok { "ok" } else { "FAIL" }));
        if !ok {
            self.correct = false;
            self.failures.push(what);
        }
    }

    fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name:<28} {value:>16.6} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print();
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "lc-perfbench: correctness checks failed: {}",
                    report.failures.join("; ")
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("lc-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    // The load generator keeps to two threads: compute-layer thread pools stay
    // off, and only the labelling and open-loop phases add one thread.
    lc_nn::RuntimeConfig {
        train_threads: 1,
        infer_threads: 1,
        pin_workers: false,
        ..Default::default()
    }
    .install();
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let boot = args.bootstrap()?;
    let host = Host::probe();
    let replica = Replica::build(boot);
    let mut report = Report::new();
    let mut bench = Bench { args, replica: &replica, report: &mut report, kernel: String::new() };
    match args.workload.as_str() {
        "serial_unique" => bench.serial_unique()?,
        "plan_bursts" => bench.plan_bursts()?,
        "feedback_drift" => bench.feedback_drift()?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    let kernel = bench.kernel.clone();
    report.notes.insert(
        0,
        format!(
            "stamp workload={} seed={} seconds={} trace={} cpu={:?} nproc={} kernel={} commit={} \
             source={} serve_flags={:?}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            host.cpu,
            host.nproc,
            kernel,
            args.commit,
            args.source,
            args.serve_flags.join(" "),
        ),
    );
    Ok(report)
}

/// One run's shared state.
struct Bench<'a> {
    args: &'a Args,
    replica: &'a Replica,
    report: &'a mut Report,
    kernel: String,
}

/// What a measured window saw of the server.
struct Window {
    cpu_us: f64,
    before: Counters,
    after: Counters,
}

impl Bench<'_> {
    /// Launch the server: several times in untraced runs, reporting the
    /// median start-up time, keeping the last one for the load.
    fn launch(&mut self) -> Result<Server, String> {
        let launches = if self.args.trace { 1 } else { SETUP_LAUNCHES };
        let log = self.args.out_dir.join("serve.log");
        let mut setup = Vec::with_capacity(launches);
        let mut server = None;
        for _ in 0..launches {
            if let Some(previous) = server.take() {
                Server::stop(previous);
            }
            let s = Server::launch(&self.args.serve_bin, &self.args.serve_flags, &log)?;
            setup.push(s.setup_s);
            server = Some(s);
        }
        let server = server.expect("at least one launch");
        self.kernel = server.kernel.clone();
        self.report.note(format!("serve {}", server.banner));
        if !self.args.trace {
            let setups: Vec<String> = setup.iter().map(|s| format!("{s:.4}")).collect();
            self.report.note(format!("setup launches (s): {}", setups.join(" ")));
            self.report.metric("setup_s", median_f64(&mut setup), "s");
        }
        Ok(server)
    }

    /// Counters before a window, with the server's CPU clock.
    fn begin(server: &Server, conn: &TcpStream) -> Result<(Counters, f64), String> {
        Ok((Counters::fetch(conn)?, server.cpu_us()?))
    }

    fn end(server: &Server, conn: &TcpStream, start: (Counters, f64)) -> Result<Window, String> {
        let cpu = server.cpu_us()?;
        Ok(Window { cpu_us: cpu - start.1, before: start.0, after: Counters::fetch(conn)? })
    }

    /// The end-to-end metrics shared by every workload.
    #[allow(clippy::too_many_arguments)]
    fn end_to_end(
        &mut self,
        server: &Server,
        latency: Latency,
        answered: usize,
        seconds: f64,
        max_rate: f64,
        qerrors: &mut [f64],
        window: &Window,
    ) -> Result<(), String> {
        self.report.note(format!(
            "latency over {} calls: mean of the fastest 99% {:.2} us, p50 {:.2} us, p90 {:.2} us, \
             p99 {:.2} us (limit {LATENCY_LIMIT_US} us)",
            latency.count, latency.mean_us, latency.p50_us, latency.p90_us, latency.p99_us
        ));
        // The p50 is printed but not a gated metric: the host's speed
        // regimes made it swing by up to 0.30 of its median (IQR over ten
        // seeds) in runs whose p90 stayed within 0.12. It jumps between
        // the regimes as their mix changes; a mean moves in proportion.
        self.report.metric("latency_mean_us", latency.mean_us, "us");
        self.report.metric("latency_p90_us", latency.p90_us, "us");
        self.report.metric("throughput_qps", answered as f64 / seconds, "1/s");
        self.report.metric("max_rate_qps", max_rate, "1/s");
        qerrors.sort_by(f64::total_cmp);
        if qerrors.is_empty() {
            return Err("no estimates to score".into());
        }
        // The p95 is printed but not a gated metric: on feedback_drift it
        // depends on which retrained model serves the tail, which the
        // timing of each publish decides.
        self.report.note(format!(
            "q-error over {} estimates: p50 {:.3}, p95 {:.3}",
            qerrors.len(),
            stats::quantile(qerrors, 0.5),
            stats::quantile(qerrors, 0.95)
        ));
        self.report.metric("qerror_p50", stats::quantile(qerrors, 0.5), "ratio");
        self.report.metric("server_cpu_us_per_req", window.cpu_us / answered as f64, "us");
        self.report.metric("server_rss_mb", server.peak_rss_mb()?, "MiB");
        Ok(())
    }

    /// The measured calls met the latency limit.
    fn within_limit(&mut self, latency: &Latency) {
        self.report.check(
            latency.p90_us <= LATENCY_LIMIT_US,
            format!("p90 {:.1} us within the {LATENCY_LIMIT_US} us limit", latency.p90_us),
        );
    }

    /// Checks every workload makes on its answers and the server's
    /// counters over the same window.
    fn common_checks(
        &mut self,
        tally: &Tally,
        window: &Window,
        hits_exact: bool,
    ) -> Result<(), String> {
        let r = &mut *self.report;
        r.attempted += tally.attempted;
        r.failed += tally.failed();
        r.note(format!(
            "answers: {} attempted, {} answered, {} errors, {} shed, {} invalid, {} cache hits, \
             fail_ratio {:.6}",
            tally.attempted,
            tally.answered,
            tally.errors,
            tally.shed,
            tally.invalid,
            tally.cache_hits,
            tally.failed() as f64 / tally.attempted.max(1) as f64
        ));
        r.check(tally.failed() == 0, format!("no failed calls ({} failed)", tally.failed()));
        r.check(
            tally.mismatches == 0,
            format!(
                "version-1 answers equal the reference bit for bit ({} differ)",
                tally.mismatches
            ),
        );
        r.check(
            tally.version_regressions == 0,
            format!(
                "model versions never go backwards ({} regressions)",
                tally.version_regressions
            ),
        );
        let hits = window.after.delta(&window.before, "cache.hits")?;
        let ok = if hits_exact {
            hits == tally.cache_hits as u64
        } else {
            hits >= tally.cache_hits as u64
        };
        r.check(
            ok,
            format!("server cache.hits {hits} matches client-seen hits {}", tally.cache_hits),
        );
        Ok(())
    }

    /// The per-layer ledger shared by every traced workload.
    #[allow(clippy::too_many_arguments)]
    fn ledger(
        &mut self,
        server: &Server,
        window: &Window,
        stream: &Stream,
        tally: &Tally,
        untraced_median_us: f64,
        traced_median_us: f64,
        late_p99_us: f64,
        tcp_spans: &SpanLog,
    ) -> Result<(), String> {
        let (args, replica) = (self.args, self.replica);
        let (w0, w1) = (&window.before, &window.after);
        let hits = w1.delta(w0, "cache.hits")?;
        let misses = w1.delta(w0, "cache.misses")?;
        let (batches, batched) = w1.histogram_delta(w0, "batcher.batch_size")?;
        let (waits, wait_ns) = w1.histogram_delta(w0, "batcher.queue_wait_ns")?;
        let requests = w1.delta(w0, "serve.requests")?;
        let mut wakeups = 0;
        for shard in 0..server.shards {
            wakeups += w1.delta(w0, &format!("serve.shard{shard}.wakeups"))?;
        }
        let trips = w1.delta(w0, "drift.trips")?;
        let retrains = w1.delta(w0, "retrain.success")?;
        let (retrain_n, retrain_ns) = w1.histogram_delta(w0, "retrain.duration_ns")?;
        let publishes = w1.delta(w0, "registry.publishes")?;
        let mean_batch = ratio(batched as f64, batches as f64);
        let r = &mut *self.report;
        let cpu_per_req = window.cpu_us / tally.answered.max(1) as f64;
        r.note(format!(
            "server cpu over the window: {:.0} us ({cpu_per_req:.2} us/estimate)",
            window.cpu_us
        ));

        // Setup layers, timed here on the replica.
        r.metric("imdb.generate_ms", replica.generate_ms, "ms");
        r.metric("engine.samples_ms", replica.samples_ms, "ms");
        r.metric("query.label_corpus_ms", replica.label_corpus_ms, "ms");
        // Train as the server does: every core, after the load is over.
        let threads = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
        let config = lc_core::TrainConfig { threads, ..args.bootstrap()?.train_config() };
        r.metric("core.train_bootstrap_ms", trace::time_bootstrap_training(replica, config)?, "ms");

        // In-process replay through the serving stages.
        let calls = stream.calls().min(REPLAY_CALLS);
        let replayed = stream.call_start[calls];
        let mut log = SpanLog::with_capacity(3 * calls + 5 * replayed);
        trace::replay(
            replica,
            stream,
            calls,
            args.serve_flag("--cache-capacity", 4096)?,
            &mut log,
        )?;
        let per_call = log.per_call_self("replay.call");
        let mut stage_sum_us = 0.0;
        for stage in trace::STAGES {
            let mut ns = per_call.get(stage).cloned().unwrap_or_else(|| vec![0; calls]);
            let median_us = quantile_of(&mut ns, 0.5) as f64 / 1e3;
            stage_sum_us += median_us;
            r.note(format!("stage {stage:<10} self time per call: median {median_us:.3} us"));
        }
        for stage in trace::STAGES {
            let mut ns = per_call.get(stage).cloned().unwrap_or_else(|| vec![0; calls]);
            let name = stage_metric(stage);
            r.metric(name, quantile_of(&mut ns, 0.5) as f64 / 1e3, "us");
        }
        let mut replay_self = per_call.get("replay.call").cloned().unwrap_or_default();
        r.note(format!(
            "replay of {calls} calls: stage sum {stage_sum_us:.3} us, replay's own self time {:.3} us, \
             TCP median {untraced_median_us:.3} us, unattributed {:.3} us",
            if replay_self.is_empty() { 0.0 } else { quantile_of(&mut replay_self, 0.5) as f64 / 1e3 },
            untraced_median_us - stage_sum_us
        ));
        r.metric("stage.sum_us", stage_sum_us, "us");
        r.metric("front.unattributed_us", untraced_median_us - stage_sum_us, "us");
        let median_ns =
            |mut v: Vec<u64>| if v.is_empty() { 0.0 } else { quantile_of(&mut v, 0.5) as f64 };
        r.metric("wire.decode_ns", median_ns(log.durations("decode")), "ns");
        r.metric("wire.encode_ns", median_ns(log.durations("encode")), "ns");
        r.metric("cache.probe_ns", median_ns(log.durations("probe")), "ns");
        r.metric("query.annotate_ns", median_ns(log.durations("annotate")), "ns");

        let batch = mean_batch.round().max(1.0) as usize;
        let core = trace::core_timings(replica, stream, batch);
        r.note(format!("core layers timed at batch 1 and at the observed mean batch {batch}"));
        r.metric("core.featurize_single_ns", core.featurize_single_ns, "ns");
        r.metric("core.featurize_batch_ns_per_q", core.featurize_batch_ns_per_q, "ns");
        r.metric("core.forward_single_ns", core.forward_single_ns, "ns");
        r.metric("core.forward_batch_ns_per_q", core.forward_batch_ns_per_q, "ns");
        let service_calls = stream.calls().min(REPLAY_CALLS / 2);
        r.metric(
            "service.estimate_us",
            trace::service_estimate_us(
                replica,
                stream,
                service_calls,
                args.serve_flag("--cache-capacity", 4096)?,
            )?,
            "us",
        );

        // Server counters over the measured window.
        r.metric("cache.hit_ratio", ratio(hits as f64, (hits + misses) as f64), "ratio");
        r.metric("batcher.mean_batch", mean_batch, "count");
        r.metric("batcher.queue_wait_us", ratio(wait_ns as f64, waits as f64) / 1e3, "us");
        r.metric("front.wakeups_per_req", ratio(wakeups as f64, requests as f64), "count");
        r.metric("drift.trips", trips as f64, "count");
        r.metric("retrain.count", retrains as f64, "count");
        r.metric("retrain.mean_ms", ratio(retrain_ns as f64, retrain_n as f64) / 1e6, "ms");
        r.metric("registry.publishes", publishes as f64, "count");
        let corpus = workload::shifted_corpus(
            replica,
            args.seed,
            lc_serve::DriftConfig::default().min_corpus,
        );
        r.metric(
            "core.train_incremental_ms",
            trace::time_incremental_training(replica, &corpus, threads),
            "ms",
        );

        r.metric("driver.late_p99_us", late_p99_us, "us");
        r.metric(
            "trace.overhead_pct",
            100.0 * (traced_median_us - untraced_median_us) / untraced_median_us,
            "%",
        );
        let spans_path =
            args.out_dir.join(format!("{}-seed{}.spans.csv", args.workload, args.seed));
        let replay_path =
            args.out_dir.join(format!("{}-seed{}.replay.csv", args.workload, args.seed));
        tcp_spans.write_csv(&spans_path)?;
        log.write_csv(&replay_path)?;
        r.note(format!("spans written to {} and {}", spans_path.display(), replay_path.display()));
        Ok(())
    }

    fn serial_unique(&mut self) -> Result<(), String> {
        let (args, replica) = (self.args, self.replica);
        let mut source = workload::UniqueSource::new(&replica.db, args.seed);
        let warm = source.stream(replica, WARM_CALLS);
        let server = self.launch()?;
        let (conn, shard) = connect_first(&server.addr, server.shards)?;
        let core = Some(shard_core(shard));
        let warm_run = closed_loop(&conn, core, &warm, f64::INFINITY, None, None)?;
        let rate = warm_run.calls as f64 / warm_run.elapsed_s;
        let stream = source.stream(replica, SERIAL_POOL);
        drop(source);
        self.report.note(format!(
            "warm-up {} calls at {rate:.0} calls/s; {} distinct calls prepared",
            warm_run.calls,
            stream.calls()
        ));
        let start = Self::begin(&server, &conn)?;
        let mut spans = args.trace.then(|| SpanLog::with_capacity(3 * REPLAY_CALLS));
        let mut run = closed_loop(
            &conn,
            core,
            &stream,
            args.seconds,
            Some((rate * args.seconds * 1.5) as usize),
            spans.as_mut(),
        )?;
        let window = Self::end(&server, &conn, start)?;
        self.common_checks(&run.tally, &window, true)?;
        self.report
            .check(run.tally.cache_hits == 0, format!("0 cache hits ({})", run.tally.cache_hits));
        if run.wrapped > 0 {
            self.report.note(format!("the stream started over: {} calls repeated", run.wrapped));
        }
        let latency = Latency::of(&mut run.latency_ns).ok_or("no calls answered")?;
        if let Some(spans) = spans {
            let [mut plain, mut traced] = run.blocks;
            let plain = Latency::of(&mut plain).ok_or("no untraced block")?.p50_us;
            let traced = Latency::of(&mut traced).ok_or("no traced block")?.p50_us;
            self.ledger(&server, &window, &stream, &run.tally, plain, traced, 0.0, &spans)?;
        } else {
            let throughput = run.tally.answered as f64 / run.elapsed_s;
            self.within_limit(&latency);
            // One synchronous caller: the highest rate it sustains is its
            // own throughput.
            self.end_to_end(
                &server,
                latency,
                run.tally.answered,
                run.elapsed_s,
                throughput,
                &mut run.qerrors,
                &window,
            )?;
        }
        server.stop();
        Ok(())
    }

    fn plan_bursts(&mut self) -> Result<(), String> {
        let (args, replica) = (self.args, self.replica);
        let nominal_s = args.seconds * NOMINAL_SHARE;
        let nominal_calls = (NOMINAL_SESSIONS_PER_S * nominal_s) as usize;
        let pool = workload::session_pool(replica, args.seed, WARM_CALLS + nominal_calls);
        self.report.note(format!(
            "session pool: {} sessions, {} estimates",
            pool.calls(),
            pool.requests()
        ));
        let server = self.launch()?;
        let (conns, spread, shard) = connect_pair(&server.addr, server.shards)?;
        self.report.note(format!("connections on different shards: {spread}"));
        // Consecutive phases continue through the pool where the last one
        // stopped, so no phase re-sends what the one before it just sent.
        let mut next = 0usize;
        let mut phase = |due: &[u64], traced: bool| -> Result<OpenRun, String> {
            let run = open_loop(
                &conns,
                &OpenPhase {
                    stream: &pool,
                    first: next,
                    due_ns: due,
                    estimate_conns: 2,
                    feedback: false,
                    max_outstanding: MAX_OUTSTANDING,
                    traced,
                    core: Some(shard_core(shard)),
                },
            )?;
            next = (next + run.sent) % pool.calls();
            Ok(run)
        };
        phase(
            &workload::poisson_schedule(args.seed ^ 1, NOMINAL_SESSIONS_PER_S, WARM_CALLS),
            false,
        )?;

        let due = workload::poisson_schedule(args.seed, NOMINAL_SESSIONS_PER_S, nominal_calls);
        let start = Self::begin(&server, &conns[0])?;
        let run = phase(&due, args.trace)?;
        let window = Self::end(&server, &conns[0], start)?;
        self.common_checks(&run.tally, &window, true)?;
        self.report.check(!run.cut_short, "the sender kept the nominal schedule");
        let mut late = run.lateness_ns(&due);
        let late_p99_us = quantile_of(&mut late, 0.99) as f64 / 1e3;
        self.report.note(format!(
            "nominal phase: {} sessions at {NOMINAL_SESSIONS_PER_S} sessions/s, mean {:.2} estimates \
             per session, sender lateness p99 {late_p99_us:.1} us",
            run.sent,
            run.tally.attempted as f64 / run.sent.max(1) as f64
        ));
        if args.trace {
            let (plain, traced, spans) = open_blocks(&run, &due);
            self.ledger(&server, &window, &pool, &run.tally, plain, traced, late_p99_us, &spans)?;
            server.stop();
            return Ok(());
        }
        let mut latency_ns = run.latency_ns(&due);
        let latency = Latency::of(&mut latency_ns).ok_or("no sessions answered")?;
        self.within_limit(&latency);
        let max_rate = self.ladder(&mut phase, args.seconds - nominal_s)?;
        let mut qerrors: Vec<f64> = run.qerrors.iter().map(|&(_, q)| q).collect();
        self.end_to_end(
            &server,
            latency,
            run.tally.answered,
            run.elapsed_s,
            max_rate,
            &mut qerrors,
            &window,
        )?;
        server.stop();
        Ok(())
    }

    /// Bisect the fixed rate ladder within `seconds`, one rung at a time;
    /// returns the estimates/s answered at the highest passing rung.
    fn ladder(
        &mut self,
        phase: &mut impl FnMut(&[u64], bool) -> Result<OpenRun, String>,
        seconds: f64,
    ) -> Result<f64, String> {
        let rung_s = seconds / LADDER_RUNGS as f64;
        let mut best = None;
        let (mut lo, mut hi) = LADDER_RANGE;
        for _ in 0..LADDER_RUNGS {
            if lo > hi {
                break;
            }
            let k = (lo + hi) / 2;
            match self.rung(phase, k, rung_s)? {
                Some(rate) => {
                    best = Some((k, rate));
                    lo = k + 1;
                }
                None if k == 0 => break,
                None => hi = k - 1,
            }
        }
        let (k, rate) = best.ok_or("no rung of the rate ladder met the latency limit")?;
        self.report.note(format!("max rate: rung {k}, {rate:.1} estimates/s"));
        Ok(rate)
    }

    /// Offer rung `k` for `seconds`; the estimates/s answered if it passed.
    fn rung(
        &mut self,
        phase: &mut impl FnMut(&[u64], bool) -> Result<OpenRun, String>,
        k: usize,
        seconds: f64,
    ) -> Result<Option<f64>, String> {
        let rate = LADDER_BASE * LADDER_STEP.powi(k as i32);
        let due = workload::poisson_schedule(
            self.args.seed ^ (k as u64 + 100),
            rate,
            (rate * seconds).ceil() as usize,
        );
        let run = phase(&due, false)?;
        let mut latency = run.latency_ns(&due);
        let p90_us = if latency.is_empty() {
            f64::INFINITY
        } else {
            quantile_of(&mut latency, 0.9) as f64 / 1e3
        };
        // The sender keeping its schedule: median lateness of the last
        // quarter of sends against the first.
        let late = run.lateness_ns(&due);
        let quarter = late.len() / 4;
        let growth_us = if quarter == 0 {
            0.0
        } else {
            let mut head = late[..quarter].to_vec();
            let mut tail = late[late.len() - quarter..].to_vec();
            (quantile_of(&mut tail, 0.5) as f64 - quantile_of(&mut head, 0.5) as f64) / 1e3
        };
        let achieved = run.tally.answered as f64 / (due.last().copied().unwrap_or(1) as f64 / 1e9);
        let pass = !run.cut_short
            && run.tally.failed() == 0
            && p90_us <= LATENCY_LIMIT_US
            && growth_us <= LATENESS_GROWTH_US;
        self.report.note(format!(
            "rung {k:>2}: {rate:>8.0} sessions/s offered, {achieved:>9.1} estimates/s answered, p90 \
             {p90_us:>9.1} us, lateness growth {growth_us:>7.1} us, {}{}",
            if pass { "pass" } else { "FAIL" },
            if run.cut_short { " (sender fell behind, cut short)" } else { "" }
        ));
        self.report.attempted += run.tally.attempted;
        self.report.failed += run.tally.failed();
        // Overload may delay or shed, never answer wrongly.
        let t = &run.tally;
        if t.mismatches > 0 || t.version_regressions > 0 || t.invalid > 0 {
            self.report.check(false, format!("rung {k}: wrong answers under load"));
        }
        Ok(pass.then_some(achieved))
    }

    fn feedback_drift(&mut self) -> Result<(), String> {
        let (args, replica) = (self.args, self.replica);
        let total = (DRIFT_RATE * args.seconds) as usize;
        let pre = (total as f64 * DRIFT_SHIFT_AT) as usize;
        let post = total - pre;
        let warm = WARM_CALLS.min(pre);
        let stream = workload::drift_stream(replica, args.seed, warm + pre, post);
        let server = self.launch()?;
        let (conns, spread, shard) = connect_pair(&server.addr, server.shards)?;
        self.report.note(format!("connections on different shards: {spread}"));
        let phase = |first: usize, due: &[u64], feedback: bool, traced: bool| {
            open_loop(
                &conns,
                &OpenPhase {
                    stream: &stream,
                    first,
                    due_ns: due,
                    estimate_conns: 1,
                    feedback,
                    max_outstanding: MAX_OUTSTANDING * 8,
                    traced,
                    core: Some(shard_core(shard)),
                },
            )
        };
        // Warm-up without feedback leaves the drift monitor untouched.
        phase(0, &workload::uniform_schedule(DRIFT_RATE, warm), false, false)?;
        let due = workload::uniform_schedule(DRIFT_RATE, total);
        let start = Self::begin(&server, &conns[1])?;
        let run = phase(warm, &due, true, args.trace)?;
        let window = Self::end(&server, &conns[1], start)?;
        self.common_checks(&run.tally, &window, false)?;
        self.report.check(!run.cut_short, "the sender kept the fixed-rate schedule");
        self.report.check(
            run.tally.feedback_acked == run.tally.answered,
            format!(
                "{} feedback frames acknowledged for {} estimates",
                run.tally.feedback_acked, run.tally.answered
            ),
        );
        let mut late = run.lateness_ns(&due);
        let late_p99_us = quantile_of(&mut late, 0.99) as f64 / 1e3;
        let trips = window.after.delta(&window.before, "drift.trips")?;
        let retrains = window.after.delta(&window.before, "retrain.success")?;
        self.report.note(format!(
            "drift: {trips} trips, {retrains} retrains, model v{} at the end; sender lateness p99 \
             {late_p99_us:.1} us",
            run.tally.max_version
        ));
        self.report.check(
            retrains >= 1 && run.tally.max_version >= 2,
            "the shift triggered a retrain that published",
        );
        if args.trace {
            let (plain, traced, spans) = open_blocks(&run, &due);
            self.ledger(&server, &window, &stream, &run.tally, plain, traced, late_p99_us, &spans)?;
            server.stop();
            return Ok(());
        }
        let mut latency_ns = run.latency_ns(&due);
        let latency = Latency::of(&mut latency_ns).ok_or("no estimates answered")?;
        self.within_limit(&latency);
        // The post-shift tail: the second half of the 3-join stretch.
        let tail_start = (pre + post / 2) as u32;
        let mut tail: Vec<f64> =
            run.qerrors.iter().filter(|&&(k, _)| k >= tail_start).map(|&(_, q)| q).collect();
        let throughput = run.tally.answered as f64 / run.elapsed_s;
        self.end_to_end(
            &server,
            latency,
            run.tally.answered,
            run.elapsed_s,
            throughput,
            &mut tail,
            &window,
        )?;
        server.stop();
        Ok(())
    }
}

/// Median latency of untraced and traced blocks of an open-loop phase,
/// with the traced blocks' call and send spans.
fn open_blocks(run: &OpenRun, due: &[u64]) -> (f64, f64, SpanLog) {
    let latency = run.latency_ns(due);
    let mut blocks = [Vec::new(), Vec::new()];
    let mut spans = SpanLog::with_capacity(run.sent);
    let d = std::time::Duration::from_nanos;
    for (k, &ns) in latency.iter().enumerate() {
        let traced = traced_block(k);
        blocks[usize::from(traced)].push(ns);
        if traced {
            let call = spans.span("tcp.call", None, k, d(due[k]), d(run.done_ns[k]));
            let sent = run.sent_ns.get(k).copied().unwrap_or(run.send_ns[k]);
            spans.span("tcp.send", Some(call), k, d(run.send_ns[k]), d(sent));
        }
    }
    let median =
        |v: &mut Vec<u64>| if v.is_empty() { 0.0 } else { quantile_of(v, 0.5) as f64 / 1e3 };
    let [mut plain, mut traced] = blocks;
    (median(&mut plain), median(&mut traced), spans)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The ledger name of a serving stage's per-call self time.
fn stage_metric(stage: &str) -> &'static str {
    match stage {
        "decode" => "stage.decode_us",
        "probe" => "stage.probe_us",
        "annotate" => "stage.annotate_us",
        "featurize" => "stage.featurize_us",
        "forward" => "stage.forward_us",
        "insert" => "stage.insert_us",
        _ => "stage.encode_us",
    }
}
