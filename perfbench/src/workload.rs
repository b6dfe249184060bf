//! The three optimizer-traffic streams, generated from `--seed` and fully
//! prepared before any clock starts: every request frame is encoded,
//! every query's true cardinality is counted on the benchmark's own
//! replica of the server's snapshot, and every query's answer from the
//! in-process reference model is known.

use lc_core::{train, Estimator, FeatureMode, MscnEstimator, TrainConfig};
use lc_engine::{count_star, Database, JoinId, SampleSet, TableId};
use lc_imdb::ImdbConfig;
use lc_query::{annotate_query, workloads, GeneratorConfig, Query, QueryGenerator};
use lc_serve::Message;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::timed;

/// Sample size the `serve` binary annotates and trains with.
pub const SAMPLE_SIZE: usize = 64;

/// Request ids with this bit set tag feedback frames; estimate requests
/// use the plain request index.
pub const FEEDBACK_ID_BIT: u64 = 1 << 63;

/// The bootstrap configuration both the server and the reference use.
#[derive(Clone, Copy, Debug)]
pub struct Bootstrap {
    /// Training corpus size (`serve --queries`).
    pub queries: usize,
    /// Training epochs (`serve --epochs`).
    pub epochs: usize,
    /// Hidden width (`serve --hidden`).
    pub hidden: usize,
}

impl Bootstrap {
    /// The training configuration `serve` builds from its flags.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            hidden: self.hidden,
            mode: FeatureMode::Bitmaps,
            ..TrainConfig::default()
        }
    }
}

/// The benchmark's replica of what `serve` builds at start-up, with the
/// time each start-up layer took here.
pub struct Replica {
    /// The tiny IMDb-style snapshot (deterministic, so bit-equal to the
    /// server's).
    pub db: Database,
    /// The materialized samples, drawn with the server's seed.
    pub samples: SampleSet,
    /// The labelled bootstrap corpus.
    pub corpus: Vec<lc_query::LabeledQuery>,
    /// The reference model: same data, seeds and configuration as the
    /// server's bootstrap model, so its answers must match bit for bit.
    pub reference: MscnEstimator,
    /// Milliseconds in `lc_imdb::generate`.
    pub generate_ms: f64,
    /// Milliseconds in `SampleSet::draw`.
    pub samples_ms: f64,
    /// Milliseconds in `workloads::synthetic` over the bootstrap corpus.
    pub label_corpus_ms: f64,
}

impl Replica {
    /// Rebuild the server's start-up state exactly as `serve` does.
    pub fn build(boot: Bootstrap) -> Replica {
        let (db, generate_ms) = timed(|| lc_imdb::generate(&ImdbConfig::tiny()));
        let (samples, samples_ms) = timed(|| {
            let mut rng = SmallRng::seed_from_u64(1);
            SampleSet::draw(&db, SAMPLE_SIZE, &mut rng)
        });
        let (corpus, label_corpus_ms) =
            timed(|| workloads::synthetic(&db, &samples, boot.queries, 2, 7).queries);
        let reference = train(&db, SAMPLE_SIZE, &corpus, boot.train_config()).estimator;
        Replica { db, samples, corpus, reference, generate_ms, samples_ms, label_corpus_ms }
    }
}

/// A prepared request stream: the calls an optimizer makes, each one or
/// more estimate requests whose frames sit back to back.
#[derive(Default)]
pub struct Stream {
    /// Every request frame, encoded, back to back.
    pub frames: Vec<u8>,
    /// `frame_end[r]` is where request `r`'s frame ends in `frames`.
    pub frame_end: Vec<usize>,
    /// True cardinality of request `r` (`count_star` on the replica).
    pub truth: Vec<u64>,
    /// The reference model's estimate for request `r`.
    pub reference: Vec<f64>,
    /// Join count of request `r`'s query.
    pub joins: Vec<u8>,
    /// `call_start[c]` is the first request of call `c`; calls are
    /// contiguous, and a final sentinel closes the last one.
    pub call_start: Vec<usize>,
    /// Feedback frames (drift stream only): `feedback_end[r]` closes
    /// request `r`'s feedback frame in `feedback`.
    pub feedback: Vec<u8>,
    /// See [`Stream::feedback`].
    pub feedback_end: Vec<usize>,
}

impl Stream {
    /// Number of requests.
    pub fn requests(&self) -> usize {
        self.truth.len()
    }

    /// Number of calls.
    pub fn calls(&self) -> usize {
        self.call_start.len().saturating_sub(1)
    }

    /// Byte range of request `r`'s frame.
    pub fn frame(&self, r: usize) -> &[u8] {
        let start = if r == 0 { 0 } else { self.frame_end[r - 1] };
        &self.frames[start..self.frame_end[r]]
    }

    /// All request frames of call `c`, back to back.
    pub fn call_frames(&self, c: usize) -> &[u8] {
        let (first, last) = (self.call_start[c], self.call_start[c + 1] - 1);
        let start = if first == 0 { 0 } else { self.frame_end[first - 1] };
        &self.frames[start..self.frame_end[last]]
    }

    /// Requests of call `c`.
    pub fn call_requests(&self, c: usize) -> std::ops::Range<usize> {
        self.call_start[c]..self.call_start[c + 1]
    }

    /// Request `r`'s feedback frame.
    pub fn feedback_frame(&self, r: usize) -> &[u8] {
        let start = if r == 0 { 0 } else { self.feedback_end[r - 1] };
        &self.feedback[start..self.feedback_end[r]]
    }

    /// Append calls made of `queries`, grouped by `calls` (sizes), with
    /// truth and reference answers computed on two threads.
    fn extend(&mut self, replica: &Replica, queries: Vec<Query>, sizes: &[usize], feedback: bool) {
        debug_assert_eq!(sizes.iter().sum::<usize>(), queries.len());
        let (truth, reference) = label(replica, &queries);
        if self.call_start.is_empty() {
            self.call_start.push(0);
        }
        for &n in sizes {
            let last = *self.call_start.last().expect("sentinel present");
            self.call_start.push(last + n);
        }
        for ((query, t), e) in queries.into_iter().zip(truth).zip(reference) {
            let id = self.truth.len() as u64;
            self.joins.push(query.num_joins() as u8);
            if feedback {
                Message::Feedback {
                    id: id | FEEDBACK_ID_BIT,
                    query: query.clone(),
                    actual_card: t,
                }
                .encode(&mut self.feedback);
                self.feedback_end.push(self.feedback.len());
            }
            Message::EstimateRequest { id, query }.encode(&mut self.frames);
            self.frame_end.push(self.frames.len());
            self.truth.push(t);
            self.reference.push(e);
        }
    }
}

/// True cardinalities and reference answers for `queries`, on two
/// threads (the benchmark's thread budget).
fn label(replica: &Replica, queries: &[Query]) -> (Vec<u64>, Vec<f64>) {
    let half = queries.len().div_ceil(2).max(1);
    let work = |part: &[Query]| -> (Vec<u64>, Vec<f64>) {
        let mut truth = Vec::with_capacity(part.len());
        let mut reference = Vec::with_capacity(part.len());
        for chunk in part.chunks(512) {
            let annotated: Vec<_> = chunk
                .iter()
                .map(|q| {
                    truth.push(count_star(&replica.db, &q.spec()));
                    annotate_query(&replica.db, &replica.samples, q.clone())
                })
                .collect();
            reference.extend(replica.reference.estimate_all(&annotated));
        }
        (truth, reference)
    };
    let mut parts = queries.chunks(half);
    let first = parts.next().unwrap_or(&[]);
    let second = parts.next().unwrap_or(&[]);
    let (mut a, b) = std::thread::scope(|s| {
        let other = s.spawn(|| work(second));
        let mine = work(first);
        (mine, other.join().expect("labelling thread panicked"))
    });
    a.0.extend(b.0);
    a.1.extend(b.1);
    a
}

/// Seed of the query generator for a workload seed: distinct from the
/// server's corpus seed (7) for every `--seed`.
fn generator_seed(seed: u64, salt: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt
}

/// `serial_unique`: distinct 0–2-join queries, one per call, deduplicated
/// by [`QueryGenerator::generate_unique`] across every batch drawn from
/// the same generator.
pub struct UniqueSource<'a> {
    generator: QueryGenerator<'a>,
}

impl<'a> UniqueSource<'a> {
    /// A generator for workload seed `seed`.
    pub fn new(db: &'a Database, seed: u64) -> Self {
        UniqueSource {
            generator: QueryGenerator::new(
                db,
                GeneratorConfig { max_joins: 2, seed: generator_seed(seed, 0x5e1a) },
            ),
        }
    }

    /// A stream of `n` more calls, each one query never drawn before.
    pub fn stream(&mut self, replica: &Replica, n: usize) -> Stream {
        let mut stream = Stream::default();
        // In chunks, so only one chunk of queries is held besides the
        // generator's own set of every query drawn.
        let mut left = n;
        while left > 0 {
            let chunk = left.min(1 << 16);
            let queries = self.generator.generate_unique(chunk);
            stream.extend(replica, queries, &vec![1; chunk], false);
            left -= chunk;
        }
        stream
    }
}

/// The connected sub-plans of a star-join query: every non-empty subset
/// of its tables that its own join edges connect, with the joins inside
/// the subset and the predicates on its tables. A plan enumerator asks
/// for the cardinality of each.
pub fn connected_subplans(query: &Query, db: &Database) -> Vec<Query> {
    let schema = db.schema();
    let tables = query.tables();
    let edges: Vec<(JoinId, TableId, TableId)> = query
        .joins()
        .iter()
        .map(|&j| {
            let e = schema.join(j);
            (j, e.fact, e.center)
        })
        .collect();
    let mut out = Vec::new();
    for mask in 1u32..(1 << tables.len()) {
        let subset: Vec<TableId> =
            (0..tables.len()).filter(|i| mask & (1 << i) != 0).map(|i| tables[i]).collect();
        let joins: Vec<JoinId> = edges
            .iter()
            .filter(|(_, a, b)| subset.contains(a) && subset.contains(b))
            .map(|&(j, _, _)| j)
            .collect();
        // A subset of a tree is connected iff it has one edge fewer than
        // it has nodes.
        if joins.len() + 1 != subset.len() {
            continue;
        }
        let predicates =
            query.predicates().iter().filter(|p| subset.contains(&p.table)).copied().collect();
        out.push(Query::new(subset, joins, predicates));
    }
    out
}

/// `plan_bursts`: a pool of optimizer sessions, each one estimate per
/// connected sub-plan of a random 0–2-join query.
pub fn session_pool(replica: &Replica, seed: u64, sessions: usize) -> Stream {
    let mut generator = QueryGenerator::new(
        &replica.db,
        GeneratorConfig { max_joins: 2, seed: generator_seed(seed, 0xb0b5) },
    );
    let mut queries = Vec::new();
    let mut sizes = Vec::with_capacity(sessions);
    for _ in 0..sessions {
        let plans = connected_subplans(&generator.generate(), &replica.db);
        sizes.push(plans.len());
        queries.extend(plans);
    }
    let mut stream = Stream::default();
    stream.extend(replica, queries, &sizes, false);
    stream
}

/// `feedback_drift`: `pre` 0–2-join queries, then `post` 3-join queries
/// (the paper's generalization cliff), each with a feedback frame
/// carrying its true cardinality.
pub fn drift_stream(replica: &Replica, seed: u64, pre: usize, post: usize) -> Stream {
    let mut generator = QueryGenerator::new(
        &replica.db,
        GeneratorConfig { max_joins: 2, seed: generator_seed(seed, 0xd71f) },
    );
    let mut queries: Vec<Query> = (0..pre).map(|_| generator.generate()).collect();
    queries.extend((0..post).map(|_| generator.generate_with_joins(3)));
    let mut stream = Stream::default();
    stream.extend(replica, queries, &vec![1; pre + post], true);
    stream
}

/// `n` labelled 3-join queries: a retraining corpus like the one the
/// server banks after the shift.
pub fn shifted_corpus(replica: &Replica, seed: u64, n: usize) -> Vec<lc_query::LabeledQuery> {
    let mut generator = QueryGenerator::new(
        &replica.db,
        GeneratorConfig { max_joins: 3, seed: generator_seed(seed, 0xc0de) },
    );
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let query = generator.generate_with_joins(3);
        let truth = count_star(&replica.db, &query.spec());
        if truth >= 1 {
            let mut labelled = annotate_query(&replica.db, &replica.samples, query);
            labelled.cardinality = truth;
            out.push(labelled);
        }
    }
    out
}

/// A seeded Poisson arrival schedule: `n` due times (nanoseconds from
/// the phase start) with exponential gaps of mean `1 / rate`.
pub fn poisson_schedule(seed: u64, rate: f64, n: usize) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(generator_seed(seed, 0x9015));
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            (t * 1e9) as u64
        })
        .collect()
}

/// A fixed-rate schedule: call `k` is due at `k / rate` seconds.
pub fn uniform_schedule(rate: f64, n: usize) -> Vec<u64> {
    (0..n).map(|k| (k as f64 / rate * 1e9) as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::decode_query;
    use lc_engine::{CmpOp, Predicate};
    use std::collections::HashSet;

    /// Count of distinct canonical queries among a stream's first
    /// `requests`.
    fn distinct_queries(stream: &Stream, requests: usize) -> usize {
        let seen: HashSet<Vec<u8>> =
            (0..requests).map(|r| decode_query(stream, r).to_canonical_bytes()).collect();
        seen.len()
    }

    fn tiny_replica() -> Replica {
        Replica::build(Bootstrap { queries: 40, epochs: 1, hidden: 8 })
    }

    #[test]
    fn two_join_star_query_has_six_connected_subplans() {
        let db = lc_imdb::generate(&ImdbConfig::tiny());
        let schema = db.schema();
        let center = schema.center;
        let (a, b) = (schema.joins[0].fact, schema.joins[1].fact);
        let pred = Predicate { table: a, column: 1, op: CmpOp::Eq, value: 1 };
        let query = Query::new(
            vec![center, a, b],
            vec![schema.join_of_fact(a).unwrap(), schema.join_of_fact(b).unwrap()],
            vec![pred],
        );
        let plans = connected_subplans(&query, &db);
        assert_eq!(plans.len(), 6, "{plans:?}");
        // {a, b} without the center is not connected on a star.
        assert!(!plans.iter().any(|p| p.tables() == [a, b] || p.tables() == [b, a]));
        // Each sub-plan keeps exactly the predicates on its tables.
        for p in &plans {
            assert_eq!(p.predicates().len(), usize::from(p.tables().contains(&a)));
            assert_eq!(p.num_joins() + 1, p.tables().len());
        }
        assert!(plans.contains(&query));
        let single = Query::new(vec![a], vec![], vec![pred]);
        assert_eq!(connected_subplans(&single, &db), vec![single]);
    }

    #[test]
    fn poisson_schedule_is_seeded_with_the_requested_mean_gap() {
        let a = poisson_schedule(3, 2_000.0, 50_000);
        assert_eq!(a, poisson_schedule(3, 2_000.0, 50_000), "same seed, same schedule");
        assert_ne!(a, poisson_schedule(4, 2_000.0, 50_000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times never go backwards");
        let mean_gap_us = *a.last().unwrap() as f64 / a.len() as f64 / 1e3;
        assert!((mean_gap_us - 500.0).abs() < 10.0, "mean gap {mean_gap_us} µs");
        let u = uniform_schedule(1_000.0, 3);
        assert_eq!(u, vec![0, 1_000_000, 2_000_000]);
    }

    #[test]
    fn serial_stream_is_distinct_across_batches() {
        let replica = tiny_replica();
        let mut source = UniqueSource::new(&replica.db, 11);
        let first = source.stream(&replica, 600);
        let second = source.stream(&replica, 600);
        assert_eq!(distinct_queries(&first, 600), 600);
        // The second batch shares no query with the first: one stream.
        let mut both = Stream::default();
        for s in [&first, &second] {
            for r in 0..s.requests() {
                both.frames.extend_from_slice(s.frame(r));
                both.frame_end.push(both.frames.len());
                both.truth.push(s.truth[r]);
            }
        }
        assert_eq!(distinct_queries(&both, 1200), 1200);
        assert_eq!(first.calls(), 600);
        assert!(first.joins.iter().all(|&j| j <= 2));
    }

    #[test]
    fn streams_carry_truth_and_reference_answers() {
        let replica = tiny_replica();
        let pool = session_pool(&replica, 5, 50);
        assert_eq!(pool.calls(), 50);
        for c in 0..pool.calls() {
            let n = pool.call_requests(c).len();
            assert!([1, 3, 6].contains(&n), "session of {n} sub-plans");
        }
        let drift = drift_stream(&replica, 5, 30, 20);
        assert_eq!(drift.requests(), 50);
        assert!(drift.joins[..30].iter().all(|&j| j <= 2));
        assert!(drift.joins[30..].iter().all(|&j| j == 3));
        for r in 0..drift.requests() {
            assert!(drift.reference[r].is_finite() && drift.reference[r] >= 1.0);
            match Message::decode_prefix(drift.feedback_frame(r), 2) {
                Ok(Some((Message::Feedback { id, actual_card, .. }, _))) => {
                    assert_eq!(id, r as u64 | FEEDBACK_ID_BIT);
                    assert_eq!(actual_card, drift.truth[r]);
                }
                other => panic!("bad feedback frame: {other:?}"),
            }
        }
    }
}
