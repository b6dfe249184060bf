//! The server under test: one `serve` process per launch, its start-up
//! banner, its resource use from `/proc`, and its `lc_obs` counters read
//! over the wire by name.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use lc_serve::wire::{read_message, CAP_FEEDBACK, CAP_METRICS, CAP_RETRY, PROTOCOL_VERSION};
use lc_serve::Message;

/// Capabilities every benchmark connection asks for: feedback frames,
/// metrics snapshots, and typed `Busy` sheds (so a shed is told apart
/// from an error).
pub const CLIENT_CAPS: u8 = CAP_FEEDBACK | CAP_METRICS | CAP_RETRY;

/// A running `serve` process. Dropping it kills the process and waits
/// for it, so no exit path of the benchmark leaves a server behind.
pub struct Server {
    child: Child,
    /// The address from the banner.
    pub addr: String,
    /// Kernel tier named in the banner (e.g. `avx2`).
    pub kernel: String,
    /// Reactor shard count named in the banner.
    pub shards: usize,
    /// The whole banner line.
    pub banner: String,
    /// Seconds from spawn to the banner.
    pub setup_s: f64,
}

impl Server {
    /// Spawn `bin` on an ephemeral port with `flags` and wait for its
    /// listening banner. The server's own log goes to `log`.
    pub fn launch(bin: &Path, flags: &[String], log: &Path) -> Result<Server, String> {
        let log_file = std::fs::File::create(log)
            .map_err(|e| format!("cannot create {}: {e}", log.display()))?;
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log_file))
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let setup_s = start.elapsed().as_secs_f64();
        let mut server = Server {
            child,
            addr: String::new(),
            kernel: String::new(),
            shards: 0,
            banner: line.trim().to_string(),
            setup_s,
        };
        if read.is_err() || !server.banner.starts_with("lc-serve listening on ") {
            return Err(format!(
                "serve exited before its banner (got {:?}); see {}",
                server.banner,
                log.display()
            ));
        }
        server.parse_banner()?;
        Ok(server)
    }

    fn parse_banner(&mut self) -> Result<(), String> {
        let banner = &self.banner;
        let bad = || format!("unrecognised serve banner: {banner:?}");
        let words: Vec<&str> = banner.split_whitespace().collect();
        self.addr = words.get(3).ok_or_else(bad)?.to_string();
        let kernel_at = words.iter().position(|w| w.starts_with("kernels")).ok_or_else(bad)?;
        self.kernel = words[kernel_at - 1].to_string();
        let shards_at = words.iter().position(|w| w.starts_with("shard")).ok_or_else(bad)?;
        self.shards = words[shards_at - 1].parse().map_err(|_| bad())?;
        Ok(())
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time (user + system) the server has used, in microseconds,
    /// from `/proc/<pid>/stat` (clock ticks of 1/100 s).
    pub fn cpu_us(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("malformed stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields.get(i).and_then(|f| f.parse::<f64>().ok()).ok_or(format!("bad {path}"))
        };
        Ok((ticks(11)? + ticks(12)?) * 1e4)
    }

    /// Peak resident set (VmHWM) in MiB, from `/proc/<pid>/status`.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or(format!("no VmHWM in {path}"))
    }

    /// Stop the server and wait for it to exit.
    pub fn stop(mut self) {
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Open a benchmark connection: no Nagle, protocol v2 with [`CLIENT_CAPS`].
pub fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let hello = Message::Hello { id: 0, version: PROTOCOL_VERSION, capabilities: CLIENT_CAPS };
    (&stream).write_all(&hello.to_bytes()).map_err(|e| e.to_string())?;
    match read_message(&mut &stream, PROTOCOL_VERSION).map_err(|e| e.to_string())? {
        Some(Message::HelloAck { capabilities, .. }) if capabilities == CLIENT_CAPS => Ok(stream),
        other => Err(format!("hello negotiation failed: {other:?}")),
    }
}

/// Connections each reactor shard has accepted, read over `conn`.
fn accepted(conn: &TcpStream, shards: usize) -> Result<Vec<u64>, String> {
    let counters = Counters::fetch(conn)?;
    (0..shards).map(|i| counters.value(&format!("serve.shard{i}.accepted"))).collect()
}

/// Open the server's first connection; returns it with the shard that
/// accepted it.
pub fn connect_first(addr: &str, shards: usize) -> Result<(TcpStream, usize), String> {
    let conn = connect(addr)?;
    let shard = accepted(&conn, shards)?.iter().position(|&n| n > 0).ok_or("no shard accepted")?;
    Ok((conn, shard))
}

/// The CPU the server runs reactor shard `shard` on: `serve` pins shard
/// `i` to CPU `i` modulo the CPU count.
pub fn shard_core(shard: usize) -> usize {
    shard % std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Open two benchmark connections, accepted by two different reactor shards
/// when the server has more than one. The kernel hands each connection
/// to a shard, and one shard serving both is a different server to
/// measure than two shards serving one each, so the second connection is
/// reopened until it lands on another shard. Returns the connections,
/// whether they did land on different shards (the kernel may keep picking
/// one shard; the run then goes on and says so) and the first one's shard.
pub fn connect_pair(addr: &str, shards: usize) -> Result<([TcpStream; 2], bool, usize), String> {
    let (first, first_shard) = connect_first(addr, shards)?;
    // The kernel wakes an idle shard for a new connection, so the first
    // shard is kept busy answering pings while the second connects.
    const PINGS: u64 = 4096;
    let mut pings = Vec::new();
    for id in 0..PINGS {
        Message::Ping { id }.encode(&mut pings);
    }
    let busy_connect = || -> Result<TcpStream, String> {
        (&first).write_all(&pings).map_err(|e| e.to_string())?;
        let second = connect(addr);
        for _ in 0..PINGS {
            match read_message(&mut &first, PROTOCOL_VERSION).map_err(|e| e.to_string())? {
                Some(Message::Pong { .. }) => {}
                other => return Err(format!("expected a Pong, got {other:?}")),
            }
        }
        second
    };
    let mut seen = accepted(&first, shards)?;
    for _ in 0..64 {
        let second = busy_connect()?;
        let now = accepted(&first, shards)?;
        let shard = (0..shards).find(|&i| now[i] > seen[i]).ok_or("no shard accepted")?;
        if shards == 1 || shard != first_shard {
            return Ok(([first, second], shards > 1, first_shard));
        }
        seen = now;
    }
    let second = busy_connect()?;
    Ok(([first, second], false, first_shard))
}

/// One `MetricsSnapshot`, keyed by catalog name.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    scalars: BTreeMap<String, u64>,
    /// Histogram name → (count, sum).
    histograms: BTreeMap<String, (u64, u64)>,
}

impl Counters {
    /// Request a snapshot over `stream`, an idle benchmark connection.
    pub fn fetch(stream: &TcpStream) -> Result<Counters, String> {
        (&*stream)
            .write_all(&Message::MetricsRequest { id: u64::MAX }.to_bytes())
            .map_err(|e| e.to_string())?;
        let reply = read_message(&mut &*stream, PROTOCOL_VERSION).map_err(|e| e.to_string())?;
        let Some(Message::MetricsSnapshot { scalars, histograms, .. }) = reply else {
            return Err(format!("expected a MetricsSnapshot, got {reply:?}"));
        };
        let name = |id: u16| {
            lc_obs::metric_name(id).map(str::to_string).ok_or(format!("unknown metric id {id}"))
        };
        let mut out = Counters::default();
        for s in scalars {
            out.scalars.insert(name(s.id)?, s.value);
        }
        for h in histograms {
            out.histograms.insert(name(h.id)?, (h.buckets.iter().sum(), h.sum));
        }
        Ok(out)
    }

    /// Current value of counter `name`; a missing name is an error.
    pub fn value(&self, name: &str) -> Result<u64, String> {
        self.scalars.get(name).copied().ok_or(format!("server has no metric {name:?}"))
    }

    /// Counter `name` grown since `before`. A missing name is an error:
    /// a renamed metric must fail the run, not zero a ledger line.
    pub fn delta(&self, before: &Counters, name: &str) -> Result<u64, String> {
        Ok(self.value(name)? - before.scalars.get(name).copied().unwrap_or(0))
    }

    /// Histogram `name`'s (count, sum) grown since `before`.
    pub fn histogram_delta(&self, before: &Counters, name: &str) -> Result<(u64, u64), String> {
        let (c, s) =
            *self.histograms.get(name).ok_or(format!("server has no histogram {name:?}"))?;
        let (c0, s0) = before.histograms.get(name).copied().unwrap_or((0, 0));
        Ok((c - c0, s - s0))
    }
}

/// Host facts stamped on every result.
pub struct Host {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
}

impl Host {
    /// Read the host facts.
    pub fn probe() -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let nproc = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
        Host { cpu, nproc }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_yields_address_kernel_tier_and_shards() {
        let server_banner = |banner: &str| {
            let child = Command::new("true").spawn().expect("spawn a no-op child");
            let mut s = Server {
                child,
                addr: String::new(),
                kernel: String::new(),
                shards: 0,
                banner: banner.into(),
                setup_s: 0.0,
            };
            let parsed = s.parse_banner().map(|_| (s.addr.clone(), s.kernel.clone(), s.shards));
            s.stop();
            parsed
        };
        let banner = "lc-serve listening on 127.0.0.1:41234 (model v1, 30785 params, 123140 \
                      resident bytes, avx2 kernels, 2 shards, cache 4096, max batch 64, inflight \
                      budget 1024, drift threshold 4 over 64-obs windows)";
        assert_eq!(server_banner(banner), Ok(("127.0.0.1:41234".into(), "avx2".into(), 2)));
        let one = banner.replace("2 shards", "1 shard");
        assert_eq!(server_banner(&one).map(|p| p.2), Ok(1));
        assert!(server_banner("lc-serve listening on x").is_err());
    }
}
