//! The load generator's HTTP client: one connection per request (the
//! server closes after each response), every stage timed.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::spans::Recorder;

/// Connect, read and write timeout. Far above any healthy response
/// (settling a session with `step?n=240` is the longest, tens of ms);
/// a request that hits it counts as failed.
const TIMEOUT: Duration = Duration::from_secs(5);

/// A response with the instants its stages ended at.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Request start (before connect).
    pub start: Instant,
    /// TCP connection established.
    pub connected: Instant,
    /// Request written.
    pub written: Instant,
    /// First response byte read.
    pub first_byte: Instant,
    /// Last response byte read.
    pub end: Instant,
}

impl Reply {
    /// Whether the status is 2xx.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The body as text.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Sends one request and reads the whole response. With an enabled
/// recorder, leaves a `request` span with `connect`, `write`,
/// `first_byte` and `last_byte` children.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    rec: &mut Recorder,
    group: u64,
) -> Result<Reply, String> {
    let result = exchange(addr, method, path, body);
    if let Ok(reply) = &result {
        rec.interval(
            "client",
            "request",
            group,
            (reply.start, reply.end),
            &[
                ("connect", reply.start, reply.connected),
                ("write", reply.connected, reply.written),
                ("first_byte", reply.written, reply.first_byte),
                ("last_byte", reply.first_byte, reply.end),
            ],
        );
    }
    result
}

fn exchange(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
    let start = Instant::now();
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT).map_err(io)?;
    let connected = Instant::now();
    stream.set_read_timeout(Some(TIMEOUT)).map_err(io)?;
    stream.set_write_timeout(Some(TIMEOUT)).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let mut message =
        format!("{method} {path} HTTP/1.1\r\nHost: parallax\r\nConnection: close\r\n");
    if !body.is_empty() {
        message.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    message.push_str("\r\n");
    let mut bytes = message.into_bytes();
    bytes.extend_from_slice(body);
    stream.write_all(&bytes).map_err(io)?;
    let written = Instant::now();

    let mut raw = Vec::with_capacity(4096);
    let mut chunk = [0u8; 16 * 1024];
    let mut first_byte = None;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                first_byte.get_or_insert_with(Instant::now);
                raw.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io(e)),
        }
    }
    let end = Instant::now();
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: response without a header end"))?;
    let status = std::str::from_utf8(&raw[..head_end])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| format!("{method} {path}: malformed status line"))?;
    Ok(Reply {
        status,
        body: raw[head_end + 4..].to_vec(),
        start,
        connected,
        written,
        first_byte: first_byte.unwrap_or(end),
        end,
    })
}
