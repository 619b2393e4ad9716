//! The benchmark's own HTTP/1.1 client: keep-alive, pipelining-capable,
//! `content-length` framing only, over `std::net`. It shares no code with
//! the server under test (`lam_serve::proto`, `loadgen`), so a change to
//! those cannot speed up the client side of a measurement.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Longest any single read or write may block before the exchange counts
/// as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Largest response head the client accepts.
const MAX_HEAD: usize = 16 << 10;

/// One client connection. After [`Conn::recv`] the response body is in
/// [`Conn::body`] until the next call.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    body: Vec<u8>,
}

impl Conn {
    /// Connect with Nagle off (pipelined small requests must not wait
    /// for each other's ACKs) and bounded blocking.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(64 << 10),
            body: Vec::new(),
        })
    }

    /// A second handle on the same socket (the open-loop sender writes
    /// through one while the receiver reads through the other).
    pub fn try_clone(&self) -> io::Result<Self> {
        Ok(Self {
            stream: self.stream.try_clone()?,
            buf: Vec::with_capacity(64 << 10),
            body: Vec::new(),
        })
    }

    /// Write one framed request.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)
    }

    /// Read the next response; returns its status and leaves the body in
    /// [`Conn::body`].
    pub fn recv(&mut self) -> io::Result<u16> {
        let head_end = loop {
            if let Some(end) = find_head_end(&self.buf) {
                break end;
            }
            if self.buf.len() > MAX_HEAD {
                return Err(invalid("response head too large"));
            }
            self.fill()?;
        };
        let (status, length) = parse_head(&self.buf[..head_end])?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        self.body.clear();
        self.body
            .extend_from_slice(&self.buf[head_end..head_end + length]);
        self.buf.drain(..head_end + length);
        Ok(status)
    }

    /// The last response's body.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// Send one request and read its response.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<u16> {
        self.send(request)?;
        self.recv()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 << 10];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// One past the blank line ending the head, if it has arrived.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Status code and `content-length` of a response head.
fn parse_head(head: &[u8]) -> io::Result<(u16, usize)> {
    let head = std::str::from_utf8(head).map_err(|_| invalid("response head is not utf-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    let mut length = 0;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid("bad content-length"))?;
            }
        }
    }
    Ok((status, length))
}

/// One request on a fresh connection (set-up and verification traffic).
pub fn request(addr: &str, request: &[u8]) -> io::Result<(u16, Vec<u8>)> {
    let mut conn = Conn::connect(addr)?;
    let status = conn.exchange(request)?;
    Ok((status, std::mem::take(&mut conn.body)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heads_parse_status_and_length() {
        let head = b"HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\nContent-Length: 12\r\nretry-after: 1\r\n\r\n";
        assert_eq!(find_head_end(head), Some(head.len()));
        assert_eq!(parse_head(head).unwrap(), (503, 12));
        assert!(parse_head(b"garbage\r\n\r\n").is_err());
        assert_eq!(find_head_end(b"HTTP/1.1 200 OK\r\n"), None);
    }
}
