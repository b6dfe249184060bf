//! The load the benchmark puts on the server: a closed loop (one call in
//! flight on one connection) and an open loop (calls sent on a schedule,
//! answers read from every connection, both by one thread).
//!
//! Both keep every timing in buffers allocated before the clock starts.
//! Open-loop calls are timed from when they were due, not from when the
//! sender got to them, so a stall in the server or the load generator counts
//! against every call it delays.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lc_eval::metrics::qerror;
use lc_serve::wire::PROTOCOL_VERSION;
use lc_serve::Message;

use crate::trace::SpanLog;
use crate::workload::{Stream, FEEDBACK_ID_BIT};

/// Calls per tracing block: the traced loads alternate untraced and
/// traced blocks of this many calls, so both halves see the same server
/// state and the difference of their medians is the tracing overhead.
pub const TRACE_BLOCK: usize = 256;

/// True if call `k` falls in a traced block.
pub fn traced_block(k: usize) -> bool {
    (k / TRACE_BLOCK) % 2 == 1
}

/// Incremental frame reader over a nonblocking socket, reusing one buffer.
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader { buf: vec![0; 256 * 1024], start: 0, end: 0 }
    }

    /// Decode one complete buffered frame, if there is one.
    pub fn try_next(&mut self) -> Result<Option<Message>, String> {
        match Message::decode_prefix(&self.buf[self.start..self.end], PROTOCOL_VERSION) {
            Ok(Some((message, used))) => {
                self.start += used;
                Ok(Some(message))
            }
            Ok(None) => Ok(None),
            Err(e) => Err(format!("undecodable server frame: {e}")),
        }
    }

    /// One `read` from `stream` into the buffer: false if a nonblocking
    /// socket had nothing yet. Errors on EOF.
    pub fn fill(&mut self, mut stream: &TcpStream) -> Result<bool, String> {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        } else if self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
            if self.end == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        loop {
            match stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.end += n;
                    return Ok(true);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read from server: {e}")),
            }
        }
    }

    /// Wait for one whole frame on a nonblocking socket, spinning, and
    /// decode it.
    pub fn next_spinning(&mut self, stream: &TcpStream) -> Result<Message, String> {
        loop {
            if let Some(message) = self.try_next()? {
                return Ok(message);
            }
            if !self.fill(stream)? {
                std::thread::yield_now();
            }
        }
    }
}

/// Write all of `bytes` to a possibly nonblocking socket.
fn send_all(mut stream: &TcpStream, mut bytes: &[u8]) -> Result<(), String> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err("server stopped reading".into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("send: {e}")),
        }
    }
    Ok(())
}

/// Keeps the machine's CPUs from going idle while it lives: one thread
/// spins, calling `yield_now` on every turn. On a virtual machine an idle
/// vCPU halts, and waking it can take milliseconds when the host is busy
/// (2.5 ms at p99 for a 300 µs sleep on a 2-vCPU host, against 0.24 ms
/// with a spinner per vCPU), noise that would swamp microsecond
/// latencies. The spinner, and the load generator's working thread while it waits,
/// run at the lowest priority, so a server thread that wakes on their CPU
/// runs at once.
///
/// It also fixes where the load generator runs. Left to the scheduler,
/// the working thread shares a CPU with the shard it calls in some runs and
/// not in others, and can move mid-run: serial p50 read 24 or 31 µs by
/// placement. Given the CPU of the shard that serves the (first
/// connection's) estimates, the working thread is pinned to it and the
/// spinner to every other CPU, so waking that shard needs no cross-CPU
/// wakeup and every run places its threads alike.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    /// The working thread's CPU mask before it was pinned.
    caller_mask: Option<CpuMask>,
}

impl KeepAwake {
    /// Start the spinner and lower the calling (working) thread's priority;
    /// with `core`, pin the caller to that CPU and the spinner to the
    /// others. Dropping it undoes both for the caller.
    pub fn start(core: Option<usize>) -> KeepAwake {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let core = core.filter(|&c| cpus > 1 && c < cpus);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("keep-awake".into())
            .spawn(move || {
                if let Some(core) = core {
                    set_affinity(&mask_of((0..cpus).filter(|&c| c != core)));
                }
                set_nice(19);
                while !flag.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
            })
            .expect("spawn the keep-awake thread");
        let caller_mask = core.and_then(|core| {
            let old = affinity()?;
            set_affinity(&mask_of([core]));
            Some(old)
        });
        set_nice(19);
        KeepAwake { stop, handle: Some(handle), caller_mask }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        set_nice(0);
        if let Some(mask) = &self.caller_mask {
            set_affinity(mask);
        }
    }
}

/// A thread's CPU mask as the kernel's affinity calls take it: one bit per
/// CPU, up to 1024 CPUs.
type CpuMask = [u64; 16];

fn mask_of(cpus: impl IntoIterator<Item = usize>) -> CpuMask {
    let mut mask = [0u64; 16];
    for c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    mask
}

/// The calling thread's CPU mask, if the kernel gives it.
fn affinity() -> Option<CpuMask> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: the kernel writes at most `size` bytes into `mask`, a live
    // buffer of exactly that size; pid 0 names the calling thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (ok == 0).then_some(mask)
}

/// Restrict the calling thread to the CPUs of `mask`. Failure only costs
/// measurement precision.
fn set_affinity(mask: &CpuMask) {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: the kernel reads `size` bytes from `mask`, a live buffer of
    // exactly that size; pid 0 names the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr());
    }
}

/// Set the calling thread's nice value (Linux applies it per thread); the
/// benchmark's spinning threads run at 19, so the server always wins a CPU
/// they share. Failure only costs measurement precision.
fn set_nice(value: i32) {
    extern "C" {
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: setpriority takes no pointers; `who = 0` names the calling
    // thread, whose scheduling priority is all it changes.
    unsafe {
        setpriority(PRIO_PROCESS, 0, value);
    }
}

/// What the checks need from every answer.
#[derive(Default, Debug)]
pub struct Tally {
    /// Estimate requests sent.
    pub attempted: usize,
    /// Estimates answered.
    pub answered: usize,
    /// Error frames.
    pub errors: usize,
    /// `Busy` sheds.
    pub shed: usize,
    /// Estimates that were not finite or below one row.
    pub invalid: usize,
    /// Version-1 estimates whose bits differ from the reference model's.
    pub mismatches: usize,
    /// Estimates answered from the cache.
    pub cache_hits: usize,
    /// Times a connection saw the model version go backwards.
    pub version_regressions: usize,
    /// Highest model version seen.
    pub max_version: u32,
    /// Feedback frames sent and acknowledged.
    pub feedback_acked: usize,
}

impl Tally {
    /// Every failure: error frames, sheds and invalid answers.
    pub fn failed(&self) -> usize {
        self.errors + self.shed + self.invalid
    }

    /// Check one estimate for request `r` of `stream`, arriving on a
    /// connection whose last seen version is `last_version`.
    fn estimate(
        &mut self,
        stream: &Stream,
        r: usize,
        answer: (f64, u32, bool),
        last_version: &mut u32,
    ) {
        let (estimate, version, cache_hit) = answer;
        self.answered += 1;
        if !(estimate.is_finite() && estimate >= 1.0) {
            self.invalid += 1;
        }
        // Until the first retrain publishes, the server serves its
        // bootstrap model, whose answers the reference reproduces exactly.
        if version == 1 && estimate.to_bits() != stream.reference[r].to_bits() {
            self.mismatches += 1;
        }
        if version < *last_version {
            self.version_regressions += 1;
        }
        *last_version = version;
        self.max_version = self.max_version.max(version);
        if cache_hit {
            self.cache_hits += 1;
        }
    }
}

/// Result of a closed loop.
pub struct ClosedRun {
    /// Per-call latency, nanoseconds.
    pub latency_ns: Vec<u64>,
    /// Q-error of every answered estimate.
    pub qerrors: Vec<f64>,
    /// Latencies of untraced and traced blocks (traced runs only).
    pub blocks: [Vec<u64>; 2],
    /// Answer checks.
    pub tally: Tally,
    /// Seconds measured.
    pub elapsed_s: f64,
    /// Calls made.
    pub calls: usize,
    /// Calls made after the stream started over.
    pub wrapped: usize,
}

/// Closed loop on one connection: send a call, wait for its answer,
/// repeat, for `seconds`. At the end of the stream the loop stops, or with
/// `wrap = Some(expect)` starts over from its first call (counted in
/// [`ClosedRun::wrapped`]), `expect` being the calls it should make in
/// time, so the sample buffers need not grow mid-run. The caller waits by
/// spinning beside a [`KeepAwake`] thread, so neither CPU halts, on CPU
/// `core` (that of the connection's shard) if given.
pub fn closed_loop(
    conn: &TcpStream,
    core: Option<usize>,
    stream: &Stream,
    seconds: f64,
    wrap: Option<usize>,
    spans: Option<&mut SpanLog>,
) -> Result<ClosedRun, String> {
    let budget = Duration::try_from_secs_f64(seconds).unwrap_or(Duration::MAX);
    conn.set_nonblocking(true).map_err(|e| format!("nonblocking socket: {e}"))?;
    let awake = KeepAwake::start(core);
    let result = closed_loop_spinning(conn, stream, budget, wrap, spans);
    drop(awake);
    conn.set_nonblocking(false).map_err(|e| format!("blocking socket: {e}"))?;
    result
}

fn closed_loop_spinning(
    conn: &TcpStream,
    stream: &Stream,
    budget: Duration,
    wrap: Option<usize>,
    mut spans: Option<&mut SpanLog>,
) -> Result<ClosedRun, String> {
    let n = stream.calls();
    let room = wrap.map_or(n, |expect| expect.max(n));
    let mut latency_ns = Vec::with_capacity(room);
    let mut qerrors = Vec::with_capacity(room);
    let mut blocks = [Vec::with_capacity(room / 2 + 1), Vec::with_capacity(room / 2 + 1)];
    let mut tally = Tally::default();
    let mut reader = FrameReader::new();
    let mut last_version = 0;
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed() < budget {
        if k == n && wrap.is_none() {
            break;
        }
        let c = k % n;
        let r = stream.call_start[c];
        let t0 = Instant::now();
        send_all(conn, stream.call_frames(c))?;
        let traced = spans.is_some() && traced_block(k);
        let t_sent = if traced { Some(Instant::now()) } else { None };
        let message = reader.next_spinning(conn)?;
        let t1 = Instant::now();
        tally.attempted += 1;
        match message {
            Message::EstimateResponse { id, estimate, model_version, cache_hit, .. }
                if id == r as u64 =>
            {
                tally.estimate(stream, r, (estimate, model_version, cache_hit), &mut last_version);
                qerrors.push(qerror(estimate, stream.truth[r] as f64));
            }
            Message::Busy { id, .. } if id == r as u64 => tally.shed += 1,
            Message::Error { id, .. } if id == r as u64 => tally.errors += 1,
            other => return Err(format!("call {k}: unexpected answer {other:?}")),
        }
        let ns = (t1 - t0).as_nanos() as u64;
        latency_ns.push(ns);
        if let Some(log) = spans.as_deref_mut() {
            blocks[usize::from(traced)].push(ns);
            if let Some(t_sent) = t_sent {
                let origin = log.origin();
                let call = log.open("tcp.call", None, k, t0 - origin);
                log.span("tcp.send", Some(call), k, t0 - origin, t_sent - origin);
                log.span("tcp.wait", Some(call), k, t_sent - origin, t1 - origin);
                log.close(call, t1 - origin);
            }
        }
        k += 1;
    }
    Ok(ClosedRun {
        latency_ns,
        qerrors,
        blocks,
        tally,
        elapsed_s: start.elapsed().as_secs_f64(),
        calls: k,
        wrapped: k.saturating_sub(n),
    })
}

/// An open-loop phase: calls from a pool sent on a schedule.
pub struct OpenPhase<'a> {
    /// The call pool. Send `k` carries call `(first + k) % calls`.
    pub stream: &'a Stream,
    /// Pool offset of send 0.
    pub first: usize,
    /// Due time of send `k`, nanoseconds from the phase start.
    pub due_ns: &'a [u64],
    /// Connections estimates are spread over (send `k` goes to
    /// `k % estimate_conns`).
    pub estimate_conns: usize,
    /// Follow every answered estimate with its feedback frame on the
    /// last connection.
    pub feedback: bool,
    /// Most calls in flight: sending waits (falling behind schedule)
    /// rather than queue more, so an overload shows as lateness and
    /// latency, never as sheds.
    pub max_outstanding: usize,
    /// Record send spans in alternate blocks.
    pub traced: bool,
    /// CPU to run the sender on: that of the first connection's shard.
    pub core: Option<usize>,
}

/// A phase gives up once its sender runs this far behind schedule.
const GIVE_UP_LATENESS: Duration = Duration::from_secs(1);

/// Result of an open-loop phase.
pub struct OpenRun {
    /// Sends made (fewer than scheduled if the phase was cut short).
    pub sent: usize,
    /// Nanoseconds from phase start each send began.
    pub send_ns: Vec<u64>,
    /// Nanoseconds from phase start each send finished (traced blocks).
    pub sent_ns: Vec<u64>,
    /// Nanoseconds from phase start each call's last answer arrived.
    pub done_ns: Vec<u64>,
    /// Per answered estimate: (send index, q-error).
    pub qerrors: Vec<(u32, f64)>,
    /// Answer checks.
    pub tally: Tally,
    /// True if sending fell too far behind schedule and stopped early.
    pub cut_short: bool,
    /// Seconds from phase start to the last answer.
    pub elapsed_s: f64,
}

impl OpenRun {
    /// Latency of every completed call, timed from its due time.
    pub fn latency_ns(&self, due_ns: &[u64]) -> Vec<u64> {
        (0..self.sent).map(|k| self.done_ns[k].saturating_sub(due_ns[k])).collect()
    }

    /// How late each send started against its due time.
    pub fn lateness_ns(&self, due_ns: &[u64]) -> Vec<u64> {
        (0..self.sent).map(|k| self.send_ns[k].saturating_sub(due_ns[k])).collect()
    }
}

/// Run an open-loop phase over `conns` (all already negotiated).
///
/// One thread does both halves: it sends every call that has come due,
/// then drains whatever answers the nonblocking sockets hold, and spins
/// (with `yield_now`) when there is nothing to do, beside a [`KeepAwake`]
/// thread, for the reason given there.
pub fn open_loop(conns: &[TcpStream], phase: &OpenPhase) -> Result<OpenRun, String> {
    assert!(phase.estimate_conns >= 1 && phase.estimate_conns <= conns.len());
    assert!(phase.max_outstanding < phase.stream.calls(), "a call must never be in flight twice");
    for conn in conns {
        conn.set_nonblocking(true).map_err(|e| format!("nonblocking socket: {e}"))?;
    }
    let awake = KeepAwake::start(phase.core);
    let result = open_loop_spinning(conns, phase);
    drop(awake);
    for conn in conns {
        conn.set_nonblocking(false).map_err(|e| format!("blocking socket: {e}"))?;
    }
    result
}

fn open_loop_spinning(conns: &[TcpStream], phase: &OpenPhase) -> Result<OpenRun, String> {
    let stream = phase.stream;
    let pool = stream.calls();
    let scheduled = phase.due_ns.len();
    let feedback_conn = conns.len() - 1;
    let mut call_of = vec![0u32; stream.requests()];
    for c in 0..pool {
        for r in stream.call_requests(c) {
            call_of[r] = c as u32;
        }
    }
    // Which send of each pool call is in flight (one at a time, since the
    // outstanding cap is below the pool size), and its answers to come.
    let mut occurrence = vec![0usize; pool];
    let mut remaining: Vec<u32> = (0..pool).map(|c| stream.call_requests(c).len() as u32).collect();
    let mut send_ns = Vec::with_capacity(scheduled);
    let mut sent_ns = Vec::with_capacity(if phase.traced { scheduled } else { 0 });
    let mut done_ns = vec![0u64; scheduled];
    let mut qerrors = Vec::with_capacity(scheduled * 6);
    let mut tally = Tally::default();
    let mut readers: Vec<FrameReader> = conns.iter().map(|_| FrameReader::new()).collect();
    let mut last_version = vec![0u32; conns.len()];
    let (mut sent, mut done, mut feedback_sent) = (0usize, 0usize, 0usize);
    let mut last_send = scheduled;
    let mut cut_short = false;
    let origin = Instant::now();
    let since = |t: Instant| (t - origin).as_nanos() as u64;
    loop {
        let now = Instant::now();
        while sent < last_send && phase.due_ns[sent] <= since(now) {
            if since(now) > phase.due_ns[sent] + GIVE_UP_LATENESS.as_nanos() as u64 {
                // Too far behind to call this rate sustained: stop offering.
                cut_short = true;
                last_send = sent;
                break;
            }
            if sent - done >= phase.max_outstanding {
                break;
            }
            let c = (phase.first + sent) % pool;
            occurrence[c] = sent;
            send_ns.push(since(Instant::now()));
            send_all(&conns[sent % phase.estimate_conns], stream.call_frames(c))?;
            if phase.traced {
                sent_ns.push(since(Instant::now()));
            }
            sent += 1;
        }
        let mut answered = false;
        for i in 0..conns.len() {
            if !readers[i].fill(&conns[i])? {
                continue;
            }
            answered = true;
            while let Some(message) = readers[i].try_next()? {
                let (id, answer) = match message {
                    Message::EstimateResponse {
                        id, estimate, model_version, cache_hit, ..
                    } => (id, Some((estimate, model_version, cache_hit))),
                    Message::FeedbackAck { id, model_version } if id & FEEDBACK_ID_BIT != 0 => {
                        tally.feedback_acked += 1;
                        if model_version < last_version[i] {
                            tally.version_regressions += 1;
                        }
                        last_version[i] = model_version;
                        continue;
                    }
                    Message::Busy { id, .. } => {
                        tally.shed += 1;
                        (id, None)
                    }
                    Message::Error { id, .. } if id != 0 => {
                        tally.errors += 1;
                        (id, None)
                    }
                    other => return Err(format!("unexpected server frame {other:?}")),
                };
                if id & FEEDBACK_ID_BIT != 0 {
                    // A refused feedback frame still closes its slot.
                    tally.feedback_acked += 1;
                    continue;
                }
                let r = id as usize;
                let Some(&c) = call_of.get(r) else {
                    return Err(format!("answer for unknown request id {id}"));
                };
                let c = c as usize;
                let k = occurrence[c];
                if let Some(answer) = answer {
                    tally.estimate(stream, r, answer, &mut last_version[i]);
                    qerrors.push((k as u32, qerror(answer.0, stream.truth[r] as f64)));
                    if phase.feedback {
                        send_all(&conns[feedback_conn], stream.feedback_frame(r))?;
                        feedback_sent += 1;
                    }
                }
                remaining[c] -= 1;
                if remaining[c] == 0 {
                    remaining[c] = stream.call_requests(c).len() as u32;
                    done_ns[k] = since(Instant::now());
                    done += 1;
                }
            }
        }
        if sent == last_send && done == sent && tally.feedback_acked == feedback_sent {
            break;
        }
        if !answered {
            std::thread::yield_now();
        }
    }
    tally.attempted = stream_requests_sent(stream, phase.first, sent);
    let elapsed_s = done_ns[..sent].iter().max().copied().unwrap_or(0) as f64 / 1e9;
    Ok(OpenRun { sent, send_ns, sent_ns, done_ns, qerrors, tally, cut_short, elapsed_s })
}

/// Requests carried by sends `0..count` of a phase starting at `first`.
fn stream_requests_sent(stream: &Stream, first: usize, count: usize) -> usize {
    (0..count).map(|k| stream.call_requests((first + k) % stream.calls()).len()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // A call due at 1 ms, sent 0.3 ms late and answered at 1.5 ms
        // took 0.5 ms: the wait for the late sender counts against it.
        let run = OpenRun {
            sent: 2,
            send_ns: vec![1_300_000, 2_000_000],
            sent_ns: vec![],
            done_ns: vec![1_500_000, 2_100_000],
            qerrors: vec![],
            tally: Tally::default(),
            cut_short: false,
            elapsed_s: 0.0021,
        };
        let due = [1_000_000, 2_000_000];
        assert_eq!(run.latency_ns(&due), vec![500_000, 100_000]);
        assert_eq!(run.lateness_ns(&due), vec![300_000, 0]);
    }

    #[test]
    fn trace_blocks_alternate() {
        assert!(!traced_block(0) && !traced_block(TRACE_BLOCK - 1));
        assert!(traced_block(TRACE_BLOCK) && !traced_block(2 * TRACE_BLOCK));
    }
}
