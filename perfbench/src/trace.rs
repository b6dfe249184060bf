//! The traced run's instruments: an in-memory span log, the in-process
//! replay of a request stream through the serving stages, and direct
//! timings of each layer's public entry points.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! the program; nothing inside the program is instrumented.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lc_core::{train, train_incremental, Estimator, RaggedBatch, TrainConfig};
use lc_query::{annotate_query, LabeledQuery, Query};
use lc_serve::wire::PROTOCOL_VERSION;
use lc_serve::{
    BatcherConfig, CacheConfig, CachedEstimate, DriftConfig, EstimateCache, EstimationService,
    Message, ModelRegistry, ServeConfig,
};

use crate::stats::quantile_of;
use crate::workload::{Replica, Stream, SAMPLE_SIZE};

/// Serving stages in the order the server runs them.
pub const STAGES: [&str; 7] =
    ["decode", "probe", "annotate", "featurize", "forward", "insert", "encode"];

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Stage or call name.
    pub name: &'static str,
    /// Nanoseconds from the log's origin.
    pub start_ns: u64,
    /// Nanoseconds from the log's origin.
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<u32>,
    /// The call (request id) the span belongs to.
    pub call: u32,
}

/// Spans kept in memory and written out when the run ends. The log keeps
/// the first `capacity` spans and drops the rest.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

/// Index returned for a span the full log dropped.
const DROPPED: u32 = u32::MAX;

impl SpanLog {
    /// An empty log that keeps up to `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanLog { origin: Instant::now(), spans: Vec::with_capacity(capacity) }
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Record a finished span; returns its index.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        call: usize,
        start: Duration,
        end: Duration,
    ) -> u32 {
        if self.spans.len() == self.spans.capacity() || parent == Some(DROPPED) {
            return DROPPED;
        }
        self.spans.push(Span {
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            parent,
            call: call as u32,
        });
        (self.spans.len() - 1) as u32
    }

    /// Open a span whose end is set later by [`SpanLog::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        call: usize,
        start: Duration,
    ) -> u32 {
        self.span(name, parent, call, start, start)
    }

    /// Set the end of an open span.
    pub fn close(&mut self, id: u32, end: Duration) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end.as_nanos() as u64;
        }
    }

    /// Time `f` as a span named `name` under `parent`.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        call: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.span(name, Some(parent), call, start, end);
        out
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children of one span never overlap here).
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// For each span name, its self time summed per call, over the calls
    /// whose root span is named `root`; a call without a span of that name
    /// counts 0.
    pub fn per_call_self(&self, root: &str) -> BTreeMap<&'static str, Vec<u64>> {
        let own = self.self_ns();
        let mut calls: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let root_of = |mut j: usize| {
                while let Some(p) = self.spans[j].parent {
                    j = p as usize;
                }
                self.spans[j].name
            };
            if root_of(i) == root {
                *calls.entry(s.call).or_default().entry(s.name).or_default() += own[i];
            }
        }
        let names: Vec<&'static str> = self
            .spans
            .iter()
            .map(|s| s.name)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for per in calls.values() {
            for &name in &names {
                out.entry(name).or_default().push(per.get(name).copied().unwrap_or(0));
            }
        }
        out
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).collect()
    }

    /// Write the spans as CSV: `id,name,start_ns,end_ns,parent,call`.
    pub fn write_csv(&self, path: &Path) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        let write = |out: &mut std::io::BufWriter<std::fs::File>| -> std::io::Result<()> {
            writeln!(out, "id,name,start_ns,end_ns,parent,call")?;
            for (i, s) in self.spans.iter().enumerate() {
                let parent = s.parent.map_or(String::new(), |p| p.to_string());
                writeln!(out, "{i},{},{},{},{parent},{}", s.name, s.start_ns, s.end_ns, s.call)?;
            }
            out.flush()
        };
        write(&mut out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Decode request `r` of `stream` back into its query.
pub fn decode_query(stream: &Stream, r: usize) -> Query {
    match Message::decode_prefix(stream.frame(r), PROTOCOL_VERSION) {
        Ok(Some((Message::EstimateRequest { query, .. }, _))) => query,
        other => panic!("prepared frame {r} is not an estimate request: {other:?}"),
    }
}

/// Replay the first `calls` calls of `stream` in process, through the
/// stages in the server's order, recording one `replay.call` span per
/// call with a child span per stage. Every estimate is checked bitwise
/// against the reference model.
pub fn replay(
    replica: &Replica,
    stream: &Stream,
    calls: usize,
    cache_capacity: usize,
    log: &mut SpanLog,
) -> Result<(), String> {
    let cache =
        EstimateCache::new(CacheConfig { capacity: cache_capacity, ..CacheConfig::default() });
    let featurizer = replica.reference.featurizer();
    let model = replica.reference.model();
    let label = featurizer.label_norm();
    let mut batch = RaggedBatch::empty();
    let mut response = Vec::new();
    let version = 1u32;
    for c in 0..calls {
        let call = log.open("replay.call", None, c, log.origin().elapsed());
        let requests = stream.call_requests(c);
        let mut queries = Vec::with_capacity(requests.len());
        for r in requests.clone() {
            let frame = stream.frame(r);
            let decoded =
                log.time("decode", call, c, || Message::decode_prefix(frame, PROTOCOL_VERSION));
            match decoded {
                Ok(Some((Message::EstimateRequest { query, .. }, _))) => queries.push(query),
                other => return Err(format!("replay: frame {r} decodes to {other:?}")),
            }
        }
        let mut keys = Vec::with_capacity(queries.len());
        let mut answers: Vec<Option<f64>> = Vec::with_capacity(queries.len());
        for q in &queries {
            let (key, hit) = log.time("probe", call, c, || {
                let mut key = q.to_canonical_bytes();
                key.extend_from_slice(&version.to_le_bytes());
                let hit = cache.get(&key);
                (key, hit)
            });
            keys.push(key);
            answers.push(hit.map(|h| h.cardinality));
        }
        let misses: Vec<usize> = (0..queries.len()).filter(|&i| answers[i].is_none()).collect();
        if !misses.is_empty() {
            let annotated: Vec<LabeledQuery> = misses
                .iter()
                .map(|&i| {
                    let q = queries[i].clone();
                    log.time("annotate", call, c, || {
                        annotate_query(&replica.db, &replica.samples, q)
                    })
                })
                .collect();
            log.time("featurize", call, c, || {
                featurizer.featurize_into_sparse_batch(&annotated, &mut batch)
            });
            let estimates: Vec<f64> = log.time("forward", call, c, || {
                model.predict(&batch).into_iter().map(|p| label.denormalize(p).max(1.0)).collect()
            });
            for (&i, estimate) in misses.iter().zip(estimates) {
                let key = std::mem::take(&mut keys[i]);
                let value = CachedEstimate { cardinality: estimate, tier: 0, log_std: 0.0 };
                log.time("insert", call, c, || cache.insert(key, value));
                answers[i] = Some(estimate);
            }
        }
        for (i, r) in requests.clone().enumerate() {
            let estimate = answers[i].expect("every request answered");
            if estimate.to_bits() != stream.reference[r].to_bits() {
                return Err(format!(
                    "replay: request {r} estimated {estimate}, reference says {}",
                    stream.reference[r]
                ));
            }
            let message = Message::EstimateResponse {
                id: r as u64,
                estimate,
                model_version: version,
                micro_batch: misses.len() as u32,
                cache_hit: !misses.contains(&i),
            };
            response.clear();
            log.time("encode", call, c, || message.encode(&mut response));
        }
        log.close(call, log.origin().elapsed());
    }
    Ok(())
}

/// Median nanoseconds per query of `f` run over consecutive chunks of
/// `batch` queries from `queries`.
fn per_query_ns(queries: &[LabeledQuery], batch: usize, mut f: impl FnMut(&[LabeledQuery])) -> f64 {
    let mut samples: Vec<u64> = queries
        .chunks_exact(batch.max(1))
        .map(|chunk| {
            let start = Instant::now();
            f(chunk);
            start.elapsed().as_nanos() as u64
        })
        .collect();
    if samples.is_empty() {
        return 0.0;
    }
    quantile_of(&mut samples, 0.5) as f64 / batch.max(1) as f64
}

/// Direct timings of the compute layers at batch 1 and at `batch`.
pub struct CoreTimings {
    /// `featurize_into_sparse_batch`, one query.
    pub featurize_single_ns: f64,
    /// `featurize_into_sparse_batch`, per query of a `batch`-query batch.
    pub featurize_batch_ns_per_q: f64,
    /// `Estimator::estimate_with_uncertainty`, one query.
    pub forward_single_ns: f64,
    /// `Estimator::estimate_with_uncertainty`, per query of a batch.
    pub forward_batch_ns_per_q: f64,
}

/// Time the compute layers over the first queries of `stream`.
pub fn core_timings(replica: &Replica, stream: &Stream, batch: usize) -> CoreTimings {
    let n = stream.requests().min(4096);
    let annotated: Vec<LabeledQuery> = (0..n)
        .map(|r| annotate_query(&replica.db, &replica.samples, decode_query(stream, r)))
        .collect();
    let reference = &replica.reference;
    let featurizer = reference.featurizer();
    let mut out = RaggedBatch::empty();
    let mut featurize = |qs: &[LabeledQuery]| featurizer.featurize_into_sparse_batch(qs, &mut out);
    let featurize_single_ns = per_query_ns(&annotated, 1, &mut featurize);
    let featurize_batch_ns_per_q = per_query_ns(&annotated, batch, &mut featurize);
    let mut forward = |qs: &[LabeledQuery]| {
        std::hint::black_box(reference.estimate_with_uncertainty(qs));
    };
    let forward_single_ns = per_query_ns(&annotated, 1, &mut forward);
    let forward_batch_ns_per_q = per_query_ns(&annotated, batch, &mut forward);
    CoreTimings {
        featurize_single_ns,
        featurize_batch_ns_per_q,
        forward_single_ns,
        forward_batch_ns_per_q,
    }
}

/// Median microseconds per call through `EstimationService` in
/// manual-flush mode (`submit` every request of the call, `flush_now`
/// until idle, `wait` each): the in-process floor under the TCP number.
pub fn service_estimate_us(
    replica: &Replica,
    stream: &Stream,
    calls: usize,
    cache_capacity: usize,
) -> Result<f64, String> {
    let registry = Arc::new(ModelRegistry::new(replica.reference.clone()));
    let config = ServeConfig {
        cache: CacheConfig { capacity: cache_capacity, ..CacheConfig::default() },
        batcher: BatcherConfig { workers: 0, ..BatcherConfig::default() },
        ..ServeConfig::default()
    };
    let service =
        EstimationService::new(replica.db.clone(), replica.samples.clone(), registry, config);
    let mut samples = Vec::with_capacity(calls);
    for c in 0..calls {
        let requests = stream.call_requests(c);
        let queries: Vec<Query> = requests.clone().map(|r| decode_query(stream, r)).collect();
        let start = Instant::now();
        let pending: Vec<_> = queries.iter().map(|q| service.submit(q)).collect();
        while service.flush_now() > 0 {}
        let answers: Vec<_> = pending.into_iter().map(|p| p.wait()).collect();
        samples.push(start.elapsed().as_nanos() as u64);
        for (r, answer) in requests.zip(answers) {
            let answer = answer.map_err(|e| format!("in-process service: {e}"))?;
            if answer.cardinality.to_bits() != stream.reference[r].to_bits() {
                return Err(format!("in-process service answered request {r} differently"));
            }
        }
    }
    service.shutdown();
    Ok(quantile_of(&mut samples, 0.5) as f64 / 1e3)
}

/// Milliseconds to train the bootstrap model with `threads` workers,
/// checking the result is the reference model byte for byte.
pub fn time_bootstrap_training(replica: &Replica, config: TrainConfig) -> Result<f64, String> {
    let start = Instant::now();
    let trained = train(&replica.db, SAMPLE_SIZE, &replica.corpus, config).estimator;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if trained.to_bytes() != replica.reference.to_bytes() {
        return Err(format!(
            "training with {} threads did not reproduce the reference model",
            config.threads
        ));
    }
    Ok(ms)
}

/// Median milliseconds of three `train_incremental` runs over `corpus`
/// with the server's retraining configuration and `threads` workers.
pub fn time_incremental_training(
    replica: &Replica,
    corpus: &[LabeledQuery],
    threads: usize,
) -> f64 {
    let config = TrainConfig { threads, ..DriftConfig::default().retrain };
    let mut ms: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(train_incremental(&replica.reference, corpus, config));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median_f64(&mut ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_sums_per_call() {
        let mut log = SpanLog::with_capacity(8);
        let us = Duration::from_micros;
        let call0 = log.open("replay.call", None, 0, us(0));
        log.span("decode", Some(call0), 0, us(1), us(3));
        log.span("decode", Some(call0), 0, us(4), us(5));
        log.span("forward", Some(call0), 0, us(5), us(9));
        log.close(call0, us(10));
        let call1 = log.open("replay.call", None, 1, us(20));
        log.span("decode", Some(call1), 1, us(20), us(21));
        log.close(call1, us(22));
        log.span("tcp.call", None, 2, us(30), us(40));
        let per_call = log.per_call_self("replay.call");
        assert_eq!(per_call["decode"], vec![3_000, 1_000]);
        assert_eq!(per_call["forward"], vec![4_000, 0]);
        assert_eq!(per_call["replay.call"], vec![3_000, 1_000]);
        assert_eq!(log.durations("tcp.call"), vec![10_000]);
    }
}
