//! The load side: a minimal keep-alive HTTP/1.1 client of the benchmark's
//! own (so client cost never moves with the program under test), and a
//! closed-loop driver that keeps every raw per-request sample.
//!
//! Bodies are not checked while the clock runs. Each connection keeps the
//! distinct bodies it saw per question (a response equal to one already
//! kept costs one comparison) and every sample names its body by index;
//! the checks run against those after the timed phase.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Nanoseconds since the process-wide trace epoch; client samples and
/// server-side spans share this clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A request rendered once, before the timed phase.
pub fn render_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: servebench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

pub fn render_get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: servebench\r\ncontent-length: 0\r\n\r\n").into_bytes()
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn { stream, buf: Vec::with_capacity(16 * 1024) })
    }

    /// Send one rendered request and read its response: `(status, body)`.
    pub fn exchange(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<u16> {
        self.stream.write_all(request)?;
        let head_end = loop {
            if let Some(at) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break at + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no content-length"))?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        body.clear();
        body.extend_from_slice(&self.buf[head_end..head_end + len]);
        self.buf.drain(..head_end + len);
        Ok(status)
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// One GET on a fresh connection (outside the timed phase).
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let mut conn = Conn::connect(addr)?;
    let mut body = Vec::new();
    let status = conn.exchange(&render_get(path), &mut body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

/// What a connection sends next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Item {
    /// A question, by index into the workload's question list.
    Question(u32),
    /// `POST /admin/publish` of a bundle, by index.
    Publish(u32),
}

/// Body index meaning "no body: the exchange failed in transport".
pub const NO_BODY: u32 = u32::MAX;

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub item: Item,
    pub start_ns: u64,
    pub end_ns: u64,
    pub status: u16,
    /// Index into the connection's distinct bodies for this item.
    pub body: u32,
}

impl Sample {
    pub fn latency_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Everything one connection recorded.
#[derive(Default)]
pub struct ConnLog {
    pub samples: Vec<Sample>,
    /// Distinct response bodies per item.
    pub bodies: HashMap<Item, Vec<Vec<u8>>>,
}

impl ConnLog {
    pub fn body(&self, s: &Sample) -> Option<&[u8]> {
        (s.body != NO_BODY).then(|| self.bodies[&s.item][s.body as usize].as_slice())
    }
}

/// Closed loop: `conns` connections, each sending its next request only
/// after the previous response arrived, until `deadline` or until `next`
/// has nothing more. `next(conn, seq)` picks the item; `render(item)` gives
/// its pre-rendered bytes. Returns one log per connection.
pub fn closed_loop<'a>(
    addr: SocketAddr,
    conns: usize,
    deadline: Instant,
    next: &(dyn Fn(usize, u64) -> Option<Item> + Sync),
    render: &(dyn Fn(Item) -> &'a [u8] + Sync),
) -> io::Result<Vec<ConnLog>> {
    let mut opened = Vec::with_capacity(conns);
    for _ in 0..conns {
        opened.push(Conn::connect(addr)?);
    }
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = opened
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                scope.spawn(move || {
                    let mut log = ConnLog::default();
                    let mut body = Vec::with_capacity(16 * 1024);
                    let mut seq = 0u64;
                    while Instant::now() < deadline {
                        let Some(item) = next(c, seq) else { break };
                        seq += 1;
                        let request = render(item);
                        let start_ns = now_ns();
                        let status = conn.exchange(request, &mut body);
                        let end_ns = now_ns();
                        let (status, index) = match status {
                            Ok(status) => {
                                let seen = log.bodies.entry(item).or_default();
                                let index = match seen.iter().position(|b| *b == body) {
                                    Some(i) => i,
                                    None => {
                                        seen.push(body.clone());
                                        seen.len() - 1
                                    }
                                };
                                (status, index as u32)
                            }
                            Err(_) => (0, NO_BODY),
                        };
                        log.samples.push(Sample { item, start_ns, end_ns, status, body: index });
                        if index == NO_BODY {
                            // The failure is counted; a broken connection
                            // cannot carry on, so reconnect (or stop).
                            match Conn::connect(addr) {
                                Ok(fresh) => conn = fresh,
                                Err(_) => break,
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    Ok(logs)
}

/// Skewed pick over `n` items: index `⌊n · u^2⌋` for `u` uniform from a
/// SplitMix64 stream of `(seed, conn, seq)`.
pub fn skewed(n: usize, seed: u64, conn: usize, seq: u64) -> usize {
    let h =
        dbcopilot::runtime::split_seed(dbcopilot::runtime::split_seed(seed, conn as u64 + 1), seq);
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    ((n as f64 * u * u) as usize).min(n - 1)
}
